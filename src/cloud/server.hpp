// The cloud server: feature index + image store + query handling.  One
// Server instance backs each experiment; it answers CBRD similarity queries
// and records what it received (bytes, images, unique geotagged locations —
// the Fig. 12 coverage metric).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "features/global.hpp"
#include "index/feature_index.hpp"
#include "index/geo.hpp"
#include "store/segment_store.hpp"

namespace bees::cloud {

struct ServerStats {
  std::size_t images_stored = 0;
  double image_bytes_received = 0.0;
  double feature_bytes_received = 0.0;
  std::size_t binary_queries = 0;
  std::size_t float_queries = 0;
  std::size_t unique_locations = 0;
};

/// What an uploaded image carries besides its features: the modelled
/// payload size, the capture geotag, and (binary-indexed path) the size of
/// the thumbnail the server would send as MRC-style feedback when the
/// image is a query's best match.  Shared by every store_* entry point so
/// new attributes extend one struct instead of four signatures.
struct StoreInfo {
  double image_bytes = 0.0;
  idx::GeoTag geo;
  double thumbnail_bytes = 0.0;
};

/// One query of a batched CBRD query: its feature set (borrowed; must
/// outlive the call), the wire bytes it is accounted for, and how many
/// ranked hits it asks for.  Both backends of cloud::dispatch —
/// cloud::Server and serve::Cluster — answer query_binary_batch over these.
struct BinaryBatchItem {
  const feat::BinaryFeatures* features = nullptr;
  double feature_bytes = 0.0;
  int top_k = idx::kDefaultTopK;
};

class Server {
 public:
  explicit Server(const idx::FeatureIndexParams& binary_params = {},
                  const idx::FloatFeatureIndex::Params& float_params = {});

  /// CBRD queries against the binary (ORB) index, answered in order;
  /// results[q] is FeatureIndex::query of items[q].  Counts each query and
  /// its received feature payload of `feature_bytes` wire bytes.
  std::vector<idx::QueryResult> query_binary_batch(
      const std::vector<BinaryBatchItem>& items);

  /// CBRD query against the float (SIFT / PCA-SIFT) index.
  idx::QueryResult query_float(const feat::FloatFeatures& features,
                               double feature_bytes,
                               int top_k = idx::kDefaultTopK);

  /// Stores an uploaded image: its features join the binary index so later
  /// batches can detect cross-batch redundancy against it.
  idx::ImageId store_binary(feat::BinaryFeatures features,
                            const StoreInfo& info = {});

  /// Stores an uploaded image indexed by float features (SmartEye path).
  idx::ImageId store_float(feat::FloatFeatures features,
                           const StoreInfo& info = {});

  /// Stores an image that arrived without features (Direct Upload path).
  void store_plain(const StoreInfo& info = {});

  /// PhotoNet-style global query: the maximum color-histogram intersection
  /// against stored global entries whose geotag lies within `geo_radius_deg`
  /// of `geo` (geo gating is skipped when either side has no geotag).
  double query_global(const feat::ColorHistogram& histogram,
                      const idx::GeoTag& geo, double feature_bytes = 0.0,
                      double geo_radius_deg = 0.005);

  /// The pure similarity scan behind query_global: no stats, no metrics.
  /// A sharded frontend calls this per shard and maxes the results, then
  /// does its own (single) accounting — keeping the fan-out path's answer
  /// and bookkeeping identical to one serial server's.
  double peek_global(const feat::ColorHistogram& histogram,
                     const idx::GeoTag& geo,
                     double geo_radius_deg = 0.005) const;

  /// Stores an image deduplicated by global features (PhotoNet path).
  void store_global(const feat::ColorHistogram& histogram,
                    const StoreInfo& info = {});

  /// Pre-seeds the binary index with features of an image the server
  /// already holds (experiment setup: controlling cross-batch redundancy).
  void seed_binary(feat::BinaryFeatures features, const idx::GeoTag& geo = {},
                   double thumbnail_bytes = 0.0);
  void seed_float(feat::FloatFeatures features, const idx::GeoTag& geo = {});
  void seed_global(const feat::ColorHistogram& histogram,
                   const idx::GeoTag& geo = {});

  const ServerStats& stats() const noexcept { return stats_; }
  const idx::FeatureIndex& binary_index() const noexcept { return binary_; }

  /// Thumbnail payload for MRC-style feedback of a binary-indexed image;
  /// 0 when unknown.
  double thumbnail_bytes_of(idx::ImageId id) const;
  const idx::FloatFeatureIndex& float_index() const noexcept { return float_; }

  /// Snapshot/restore support for the serving layer's durable shards.
  /// Indexed features travel through the idx persistence codecs; these
  /// expose the remaining state a checkpoint must carry.
  const std::vector<std::pair<feat::ColorHistogram, idx::GeoTag>>&
  global_entries() const noexcept {
    return global_entries_;
  }
  /// Quantized location keys behind stats().unique_locations, in
  /// deterministic (sorted) order so snapshots are byte-stable.
  std::vector<std::uint64_t> location_keys() const;
  /// Reinstates byte/count accounting and the location set after the index
  /// contents have been rebuilt via seed_* (seeding records no stats).
  void restore_accounting(const ServerStats& stats,
                          const std::vector<std::uint64_t>& location_keys);

  /// Attaches the content-addressed chunk store serving the chunk-manifest
  /// upload plane (kChunkManifest/Data/Commit).  Borrowed, not owned; null
  /// (the default) makes dispatch answer every chunk message with
  /// net::kChunkStoreDisabledMessage so clients fall back to whole-image
  /// uploads.
  void attach_chunk_store(store::SegmentStore* chunk_store) noexcept {
    chunk_store_ = chunk_store;
  }
  /// The attached chunk store (the name serve::Cluster shares, so one
  /// dispatch serves both); nullptr when none is attached.
  store::SegmentStore* segment_store() const noexcept { return chunk_store_; }

 private:
  void note_location(const idx::GeoTag& geo);
  /// Shared store_* bookkeeping: stats, coverage, store counters.
  void record_store(const StoreInfo& info);

  idx::FeatureIndex binary_;
  idx::FloatFeatureIndex float_;
  std::vector<double> binary_thumb_bytes_;  // parallel to binary_ ids
  std::vector<std::pair<feat::ColorHistogram, idx::GeoTag>> global_entries_;
  std::unordered_set<std::uint64_t> locations_;
  ServerStats stats_;
  store::SegmentStore* chunk_store_ = nullptr;
};

}  // namespace bees::cloud
