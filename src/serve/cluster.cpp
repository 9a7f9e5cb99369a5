#include "serve/cluster.hpp"

#include <algorithm>
#include <exception>
#include <future>
#include <stdexcept>

#include "cloud/rpc.hpp"
#include "index/serialize.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"
#include "util/byte_io.hpp"

namespace bees::serve {
namespace {

/// splitmix64 finalizer: the router's stable hash.  Geotag cells and global
/// ids are both low-entropy sequences; the mix spreads them evenly over any
/// shard count.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Cluster::Cluster(const ClusterOptions& options) : options_(options) {
  const int n = std::max(1, options_.shards);
  options_.shards = n;
  if (options_.segment_store.dir.empty() && !options_.data_dir.empty()) {
    options_.segment_store.dir = options_.data_dir + "/segments";
  }
  if (!options_.segment_store.dir.empty()) {
    // Constructed before any shard so recovery can resolve snapshot
    // manifests against the rebuilt directory.
    store_ = std::make_unique<store::SegmentStore>(options_.segment_store);
  }
  const BackendFactory factory =
      options_.backend_factory ? options_.backend_factory
                               : BackendFactory(make_single_backend);
  backends_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ShardOptions shard_options;
    if (!options_.data_dir.empty()) {
      shard_options.dir = options_.data_dir + "/shard-" + std::to_string(i);
    }
    shard_options.segment_store = store_.get();
    shard_options.checkpoint_every = options_.checkpoint_every;
    shard_options.binary_params = options_.binary_params;
    shard_options.float_params = options_.float_params;
    backends_.push_back(factory(i, shard_options));
  }
  next_binary_local_.assign(static_cast<std::size_t>(n), 0);
  next_float_local_.assign(static_cast<std::size_t>(n), 0);

  // Rebuild the global routing tables from what each shard recovered.  A
  // gid no shard claims (lost to a torn WAL tail) stays a hole.  A
  // replicated backend recovers its promoted instance (the persisted term
  // decides which), so the identity read here reflects any failover the
  // previous process lifetime committed.
  for (int s = 0; s < n; ++s) {
    const ShardIdentity identity =
        backends_[static_cast<std::size_t>(s)]->active().identity();
    for (std::size_t local = 0; local < identity.binary_globals.size();
         ++local) {
      const std::uint32_t gid = identity.binary_globals[local];
      if (gid >= binary_locations_.size()) binary_locations_.resize(gid + 1);
      binary_locations_[gid] = {s, static_cast<idx::ImageId>(local)};
    }
    next_binary_local_[static_cast<std::size_t>(s)] =
        static_cast<idx::ImageId>(identity.binary_globals.size());
    for (std::size_t local = 0; local < identity.float_globals.size();
         ++local) {
      const std::uint32_t gid = identity.float_globals[local];
      if (gid >= float_locations_.size()) float_locations_.resize(gid + 1);
      float_locations_[gid] = {s, static_cast<idx::ImageId>(local)};
    }
    next_float_local_[static_cast<std::size_t>(s)] =
        static_cast<idx::ImageId>(identity.float_globals.size());
  }
  next_binary_gid_ = static_cast<std::uint32_t>(binary_locations_.size());
  next_float_gid_ = static_cast<std::uint32_t>(float_locations_.size());

  pool_ = std::make_unique<util::ThreadPool>(
      static_cast<std::size_t>(std::max(1, options_.threads)));
}

std::size_t Cluster::route(const idx::GeoTag& geo, std::uint32_t gid) const {
  // Same-place images land on the same shard (their redundancy candidates
  // live where they do); untagged images spread by id.
  const std::uint64_t key =
      geo.valid ? idx::location_key(geo) : 0x8000000000000000ull + gid;
  return static_cast<std::size_t>(mix64(key) % backends_.size());
}

// ---------------------------------------------------------------------------
// Request plane.

std::vector<std::uint8_t> Cluster::handle(
    const std::vector<std::uint8_t>& request) {
  const std::size_t depth =
      pending_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (depth > options_.queue_depth) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.shed");
    return net::encode_error(kShedErrorMessage);
  }
  obs::gauge("serve.queue.depth", static_cast<double>(depth));
  obs::count("serve.requests");
  auto promise = std::make_shared<std::promise<std::vector<std::uint8_t>>>();
  std::future<std::vector<std::uint8_t>> reply = promise->get_future();
  pool_->submit([this, request, promise] {
    std::vector<std::uint8_t> bytes = cloud::dispatch(*this, request);
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    promise->set_value(std::move(bytes));
  });
  return reply.get();
}

std::vector<std::vector<std::uint8_t>> Cluster::handle_coalesced(
    const std::vector<std::vector<std::uint8_t>>& requests) {
  return cloud::dispatch(*this, requests);
}

net::Transport::Handler Cluster::handler() {
  return [this](const std::vector<std::uint8_t>& request) {
    return handle(request);
  };
}

// ---------------------------------------------------------------------------
// Query plane: fan out, merge exactly.

std::vector<idx::QueryResult> Cluster::query_binary_batch(
    const std::vector<cloud::BinaryBatchItem>& items) {
  const std::size_t nq = items.size();
  std::vector<idx::QueryResult> results(nq);
  if (nq == 0) return results;
  obs::ScopedTimer timer("serve.query.binary.seconds");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    for (const cloud::BinaryBatchItem& item : items) {
      ++binary_queries_;
      query_feature_bytes_ += item.feature_bytes;
    }
  }
  obs::ScopedSpan span("fanout.binary", "serve", obs::kLaneServer);

  // Phase 1, per query: merge per-shard candidate rankings.  Each shard's
  // list is the global (votes desc, gid asc) order restricted to its
  // images, and per-image scores are pure (query, image) functions, so the
  // global top-B is contained in the union of per-shard top-B lists and
  // truncating the merge to the single-index budget reproduces the
  // single-index candidate set.  Phase-2 work is accumulated into one
  // batched rescore per shard.
  const std::size_t n_shards = backends_.size();
  std::vector<std::vector<const feat::BinaryFeatures*>> shard_features(
      n_shards);
  std::vector<std::vector<std::vector<idx::ImageId>>> shard_locals(n_shards);
  std::vector<std::vector<int>> shard_top_k(n_shards);
  std::vector<std::vector<std::size_t>> shard_query(n_shards);
  const std::size_t budget = idx::candidate_budget(options_.binary_params);
  for (std::size_t q = 0; q < nq; ++q) {
    const feat::BinaryFeatures& features = *items[q].features;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> merged;
    for (const auto& backend : backends_) {
      const auto candidates = backend->active().binary_candidates(features);
      merged.insert(merged.end(), candidates.begin(), candidates.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    if (merged.size() > budget) merged.resize(budget);

    std::vector<std::vector<idx::ImageId>> locals(n_shards);
    {
      std::lock_guard<std::mutex> lock(maps_mutex_);
      for (const auto& [gid, votes] : merged) {
        const Location& loc = binary_locations_[gid];
        locals[static_cast<std::size_t>(loc.shard)].push_back(loc.local);
      }
    }
    for (std::size_t s = 0; s < n_shards; ++s) {
      if (locals[s].empty()) continue;
      shard_features[s].push_back(&features);
      shard_locals[s].push_back(std::move(locals[s]));
      shard_top_k[s].push_back(items[q].top_k);
      shard_query[s].push_back(q);
    }
  }

  // Phase 2: one batched rescore per shard; per-shard top-k lists cover the
  // global top-k because within a shard local order is gid order.  Scatter
  // the per-query parts back and finalize each query's merge.
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (shard_features[s].empty()) continue;
    const std::vector<idx::QueryResult> parts =
        backends_[s]->active().rescore_binary_batch(
            shard_features[s], shard_locals[s], shard_top_k[s]);
    for (std::size_t e = 0; e < parts.size(); ++e) {
      idx::QueryResult& out = results[shard_query[s][e]];
      out.hits.insert(out.hits.end(), parts[e].hits.begin(),
                      parts[e].hits.end());
      out.candidates_checked += parts[e].candidates_checked;
      out.ops += parts[e].ops;
    }
  }
  for (std::size_t q = 0; q < nq; ++q) {
    idx::detail::finalize_top_k(results[q], items[q].top_k);
    obs::count("serve.query.binary");
    obs::observe("serve.query.binary.candidates",
                 static_cast<double>(results[q].candidates_checked));
  }
  return results;
}

idx::QueryResult Cluster::query_float(const feat::FloatFeatures& features,
                                      double feature_bytes, int top_k) {
  obs::ScopedTimer timer("serve.query.float.seconds");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++float_queries_;
    query_feature_bytes_ += feature_bytes;
  }
  obs::ScopedSpan span("fanout.float", "serve", obs::kLaneServer);

  std::vector<std::pair<double, std::uint32_t>> merged;  // (distance, gid)
  for (const auto& backend : backends_) {
    const auto candidates = backend->active().float_candidates(features);
    merged.insert(merged.end(), candidates.begin(), candidates.end());
  }
  std::sort(merged.begin(), merged.end());  // (distance asc, gid asc)
  const std::size_t budget = idx::candidate_budget(options_.float_params);
  if (merged.size() > budget) merged.resize(budget);

  std::vector<std::vector<idx::ImageId>> locals(backends_.size());
  {
    std::lock_guard<std::mutex> lock(maps_mutex_);
    for (const auto& [distance, gid] : merged) {
      const Location& loc = float_locations_[gid];
      locals[static_cast<std::size_t>(loc.shard)].push_back(loc.local);
    }
  }
  idx::QueryResult out;
  for (std::size_t s = 0; s < backends_.size(); ++s) {
    if (locals[s].empty()) continue;
    const idx::QueryResult part =
        backends_[s]->active().rescore_float(features, locals[s], top_k);
    out.hits.insert(out.hits.end(), part.hits.begin(), part.hits.end());
    out.candidates_checked += part.candidates_checked;
    out.ops += part.ops;
  }
  idx::detail::finalize_top_k(out, top_k);
  obs::count("serve.query.float");
  obs::observe("serve.query.float.candidates",
               static_cast<double>(out.candidates_checked));
  return out;
}

double Cluster::query_global(const feat::ColorHistogram& histogram,
                             const idx::GeoTag& geo, double feature_bytes,
                             double geo_radius_deg) {
  obs::ScopedTimer timer("serve.query.global.seconds");
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    query_feature_bytes_ += feature_bytes;
  }
  double best = 0.0;
  for (const auto& backend : backends_) {
    best = std::max(best,
                    backend->active().peek_global(histogram, geo,
                                                  geo_radius_deg));
  }
  obs::count("serve.query.global");
  return best;
}

// ---------------------------------------------------------------------------
// Mutation plane (single-writer).

std::uint32_t Cluster::apply_mutation(WalOp op, const idx::GeoTag& geo,
                                      WalRecord record,
                                      std::uint32_t* next_gid,
                                      std::vector<Location>* locations,
                                      std::vector<idx::ImageId>* next_local) {
  const std::uint32_t gid = (*next_gid)++;
  record.op = op;
  record.global_id = gid;
  const std::size_t s = route(geo, gid);
  ShardBackend& backend = *backends_[s];
  idx::ImageId predicted = idx::kInvalidImageId;
  if (locations) {
    predicted = (*next_local)[s]++;
    std::lock_guard<std::mutex> lock(maps_mutex_);
    locations->push_back({static_cast<int>(s), predicted});
  }
  const std::uint64_t seq_before = backend.active().last_applied_seq();
  idx::ImageId local = idx::kInvalidImageId;
  try {
    local = backend.apply(std::move(record));
  } catch (...) {
    if (backend.active().last_applied_seq() == seq_before) {
      --*next_gid;
      if (locations) {
        --(*next_local)[s];
        std::lock_guard<std::mutex> lock(maps_mutex_);
        locations->pop_back();
      }
    }
    throw;
  }
  if (locations && local != predicted) {
    throw std::logic_error("cluster: shard local id drifted from prediction");
  }
  return gid;
}

idx::ImageId Cluster::store_binary(const feat::BinaryFeatures& features,
                                   const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  WalRecord record;
  record.info = info;
  record.payload = idx::serialize_binary(features);
  const std::uint32_t gid =
      apply_mutation(WalOp::kStoreBinary, info.geo, std::move(record),
                     &next_binary_gid_, &binary_locations_,
                     &next_binary_local_);
  obs::count("serve.store.images");
  return gid;
}

idx::ImageId Cluster::store_float(const feat::FloatFeatures& features,
                                  const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  WalRecord record;
  record.info = info;
  record.payload = idx::serialize_float(features);
  const std::uint32_t gid =
      apply_mutation(WalOp::kStoreFloat, info.geo, std::move(record),
                     &next_float_gid_, &float_locations_, &next_float_local_);
  obs::count("serve.store.images");
  return gid;
}

void Cluster::store_global(const feat::ColorHistogram& histogram,
                           const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  WalRecord record;
  record.info = info;
  util::ByteWriter w;
  idx::put_histogram(w, histogram);
  record.payload = w.take();
  apply_mutation(WalOp::kStoreGlobal, info.geo, std::move(record),
                 &next_unrouted_, nullptr, nullptr);
  obs::count("serve.store.images");
}

void Cluster::store_plain(const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  WalRecord record;
  record.info = info;
  apply_mutation(WalOp::kStorePlain, info.geo, std::move(record),
                 &next_unrouted_, nullptr, nullptr);
  obs::count("serve.store.images");
}

void Cluster::seed_binary(const feat::BinaryFeatures& features,
                          const idx::GeoTag& geo, double thumbnail_bytes) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  WalRecord record;
  record.info.geo = geo;
  record.info.thumbnail_bytes = thumbnail_bytes;
  record.payload = idx::serialize_binary(features);
  apply_mutation(WalOp::kSeedBinary, geo, std::move(record), &next_binary_gid_,
                 &binary_locations_, &next_binary_local_);
}

void Cluster::seed_float(const feat::FloatFeatures& features,
                         const idx::GeoTag& geo) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  WalRecord record;
  record.info.geo = geo;
  record.payload = idx::serialize_float(features);
  apply_mutation(WalOp::kSeedFloat, geo, std::move(record), &next_float_gid_,
                 &float_locations_, &next_float_local_);
}

void Cluster::seed_global(const feat::ColorHistogram& histogram,
                          const idx::GeoTag& geo) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  WalRecord record;
  record.info.geo = geo;
  util::ByteWriter w;
  idx::put_histogram(w, histogram);
  record.payload = w.take();
  apply_mutation(WalOp::kSeedGlobal, geo, std::move(record), &next_unrouted_,
                 nullptr, nullptr);
}

// ---------------------------------------------------------------------------
// Lookup, stats, durability.

double Cluster::thumbnail_bytes_of(idx::ImageId gid) const {
  Location loc;
  {
    std::lock_guard<std::mutex> lock(maps_mutex_);
    if (gid >= binary_locations_.size()) return 0.0;
    loc = binary_locations_[gid];
  }
  if (loc.shard < 0) return 0.0;
  return backends_[static_cast<std::size_t>(loc.shard)]
      ->active()
      .thumbnail_bytes_of_local(loc.local);
}

cloud::ServerStats Cluster::stats() const {
  cloud::ServerStats out;
  std::unordered_set<std::uint64_t> keys;
  for (const auto& backend : backends_) {
    const Shard& shard = backend->active();
    const cloud::ServerStats st = shard.stats();
    out.images_stored += st.images_stored;
    out.image_bytes_received += st.image_bytes_received;
    out.feature_bytes_received += st.feature_bytes_received;
    const std::vector<std::uint64_t> shard_keys = shard.location_keys();
    keys.insert(shard_keys.begin(), shard_keys.end());
  }
  out.unique_locations = keys.size();
  std::lock_guard<std::mutex> lock(stats_mutex_);
  out.binary_queries = binary_queries_;
  out.float_queries = float_queries_;
  out.feature_bytes_received += query_feature_bytes_;
  return out;
}

void Cluster::checkpoint() {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  // Every shard is checkpointed even when one throws, so one failing disk
  // does not leave the others with their whole WAL; the first error is
  // rethrown after the loop.
  std::exception_ptr first_error;
  for (const auto& backend : backends_) {
    try {
      backend->checkpoint();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

bool Cluster::kill_primary(int shard) {
  if (shard < 0 || shard >= shard_count()) return false;
  // The mutation lock puts the kill *between* applies: no record is ever
  // half-shipped when the promotion runs, which is what makes the promoted
  // standby's state exactly the killed primary's.
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  return backends_[static_cast<std::size_t>(shard)]->kill_active();
}

BackendResilience Cluster::resilience() const {
  BackendResilience out;
  for (const auto& backend : backends_) {
    const BackendResilience r = backend->resilience();
    out.failovers += r.failovers;
    out.ship_records += r.ship_records;
    out.ship_bytes += r.ship_bytes;
    out.ship_lag_max = std::max(out.ship_lag_max, r.ship_lag_max);
    out.catch_ups += r.catch_ups;
    out.live_standbys += r.live_standbys;
  }
  return out;
}

idx::FeatureIndex Cluster::merged_binary_index() const {
  std::vector<Location> locations;
  {
    std::lock_guard<std::mutex> lock(maps_mutex_);
    locations = binary_locations_;
  }
  idx::FeatureIndex out(options_.binary_params);
  for (const Location& loc : locations) {
    if (loc.shard < 0) continue;
    auto [features, geo] = backends_[static_cast<std::size_t>(loc.shard)]
                               ->active()
                               .binary_entry(loc.local);
    out.insert(std::move(features), geo);
  }
  return out;
}

void Cluster::preload_binary(const idx::FeatureIndex& index) {
  for (std::size_t i = 0; i < index.image_count(); ++i) {
    const auto id = static_cast<idx::ImageId>(i);
    seed_binary(index.features_of(id), index.geo_of(id));
  }
}

}  // namespace bees::serve
