#include "cloud/server.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace bees::cloud {

Server::Server(const idx::FeatureIndexParams& binary_params,
               const idx::FloatFeatureIndex::Params& float_params)
    : binary_(binary_params), float_(float_params) {}

void Server::note_location(const idx::GeoTag& geo) {
  if (!geo.valid) return;
  locations_.insert(idx::location_key(geo));
  stats_.unique_locations = locations_.size();
}

std::vector<idx::QueryResult> Server::query_binary_batch(
    const std::vector<BinaryBatchItem>& items) {
  obs::ScopedTimer timer("cloud.query.binary.seconds");
  std::vector<idx::QueryResult> results;
  results.reserve(items.size());
  for (const BinaryBatchItem& item : items) {
    ++stats_.binary_queries;
    stats_.feature_bytes_received += item.feature_bytes;
    const idx::QueryResult& result =
        results.emplace_back(binary_.query(*item.features, item.top_k));
    obs::count("cloud.query.binary");
    obs::count("cloud.query.ops", static_cast<double>(result.ops));
    obs::observe("cloud.query.binary.candidates",
                 static_cast<double>(result.candidates_checked));
  }
  return results;
}

idx::QueryResult Server::query_float(const feat::FloatFeatures& features,
                                     double feature_bytes, int top_k) {
  obs::ScopedTimer timer("cloud.query.float.seconds");
  ++stats_.float_queries;
  stats_.feature_bytes_received += feature_bytes;
  const idx::QueryResult result = float_.query(features, top_k);
  obs::count("cloud.query.float");
  obs::count("cloud.query.ops", static_cast<double>(result.ops));
  obs::observe("cloud.query.float.candidates",
               static_cast<double>(result.candidates_checked));
  return result;
}

void Server::record_store(const StoreInfo& info) {
  ++stats_.images_stored;
  stats_.image_bytes_received += info.image_bytes;
  note_location(info.geo);
  obs::count("cloud.store.images");
  obs::count("cloud.store.image_bytes", info.image_bytes);
}

idx::ImageId Server::store_binary(feat::BinaryFeatures features,
                                  const StoreInfo& info) {
  record_store(info);
  const idx::ImageId id = binary_.insert(std::move(features), info.geo);
  binary_thumb_bytes_.resize(id + 1, 0.0);
  binary_thumb_bytes_[id] = info.thumbnail_bytes;
  return id;
}

double Server::thumbnail_bytes_of(idx::ImageId id) const {
  return id < binary_thumb_bytes_.size() ? binary_thumb_bytes_[id] : 0.0;
}

idx::ImageId Server::store_float(feat::FloatFeatures features,
                                 const StoreInfo& info) {
  record_store(info);
  return float_.insert(std::move(features), info.geo);
}

void Server::store_plain(const StoreInfo& info) { record_store(info); }

double Server::peek_global(const feat::ColorHistogram& histogram,
                           const idx::GeoTag& geo,
                           double geo_radius_deg) const {
  double best = 0.0;
  for (const auto& [stored, stored_geo] : global_entries_) {
    if (geo.valid && stored_geo.valid) {
      // Cheap box gate; PhotoNet treats far-apart photos as non-redundant
      // regardless of appearance.
      if (std::abs(stored_geo.lon - geo.lon) > geo_radius_deg ||
          std::abs(stored_geo.lat - geo.lat) > geo_radius_deg) {
        continue;
      }
    }
    best = std::max(best, feat::histogram_intersection(histogram, stored));
  }
  return best;
}

double Server::query_global(const feat::ColorHistogram& histogram,
                            const idx::GeoTag& geo, double feature_bytes,
                            double geo_radius_deg) {
  obs::ScopedTimer timer("cloud.query.global.seconds");
  obs::count("cloud.query.global");
  stats_.feature_bytes_received += feature_bytes;
  return peek_global(histogram, geo, geo_radius_deg);
}

void Server::store_global(const feat::ColorHistogram& histogram,
                          const StoreInfo& info) {
  record_store(info);
  global_entries_.emplace_back(histogram, info.geo);
}

void Server::seed_binary(feat::BinaryFeatures features, const idx::GeoTag& geo,
                         double thumbnail_bytes) {
  const idx::ImageId id = binary_.insert(std::move(features), geo);
  binary_thumb_bytes_.resize(id + 1, 0.0);
  binary_thumb_bytes_[id] = thumbnail_bytes;
}

void Server::seed_float(feat::FloatFeatures features, const idx::GeoTag& geo) {
  float_.insert(std::move(features), geo);
}

void Server::seed_global(const feat::ColorHistogram& histogram,
                         const idx::GeoTag& geo) {
  global_entries_.emplace_back(histogram, geo);
}

std::vector<std::uint64_t> Server::location_keys() const {
  std::vector<std::uint64_t> keys(locations_.begin(), locations_.end());
  std::sort(keys.begin(), keys.end());
  return keys;
}

void Server::restore_accounting(
    const ServerStats& stats, const std::vector<std::uint64_t>& location_keys) {
  stats_ = stats;
  locations_.clear();
  locations_.insert(location_keys.begin(), location_keys.end());
  stats_.unique_locations = locations_.size();
}

}  // namespace bees::cloud
