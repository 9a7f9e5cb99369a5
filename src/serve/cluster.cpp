#include "serve/cluster.hpp"

#include <algorithm>
#include <exception>
#include <functional>
#include <tuple>
#include <unordered_set>
#include <utility>

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

/// Phase 1's merge: every shard's candidates ranked by score (`better`
/// first, ties to the lower gid) and truncated to the single-index
/// candidate budget.  Returns each survivor's local id, per shard, for the
/// shard that reported it.
template <typename Score, typename Better>
std::vector<std::vector<idx::ImageId>> merge_candidates(
    const std::vector<std::vector<Candidate<Score>>>& per_shard,
    std::size_t budget, Better better) {
  std::vector<std::pair<Candidate<Score>, std::size_t>> merged;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    for (const Candidate<Score>& c : per_shard[s]) merged.emplace_back(c, s);
  }
  std::sort(merged.begin(), merged.end(), [&](const auto& a, const auto& b) {
    if (a.first.score != b.first.score) {
      return better(a.first.score, b.first.score);
    }
    return a.first.gid < b.first.gid;
  });
  if (merged.size() > budget) merged.resize(budget);
  std::vector<std::vector<idx::ImageId>> locals(per_shard.size());
  for (const auto& [c, s] : merged) locals[s].push_back(c.local);
  return locals;
}

std::vector<std::uint8_t> histogram_payload(
    const feat::ColorHistogram& histogram) {
  util::ByteWriter w;
  idx::put_histogram(w, histogram);
  return w.take();
}

/// Runs `fn` when the scope exits, by whichever path.
template <typename Fn>
class OnExit {
 public:
  explicit OnExit(Fn fn) : fn_(std::move(fn)) {}
  ~OnExit() { fn_(); }
  OnExit(const OnExit&) = delete;
  OnExit& operator=(const OnExit&) = delete;

 private:
  Fn fn_;
};

}  // namespace

Cluster::Cluster(const ClusterOptions& options)
    : options_(options), permits_(std::max(1, options.threads)) {
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

  // Each id space continues after the largest gid any shard recovered (a
  // shard's id list is ascending, so its last entry).  A gid no shard
  // holds (lost to a torn WAL tail) stays a hole.  A replicated backend
  // recovers its promoted instance (the persisted term decides which), so
  // the identity read here reflects any failover the previous process
  // lifetime committed.
  const auto continue_after = [](const std::vector<std::uint32_t>& gids,
                                 std::uint32_t* next) {
    if (!gids.empty()) *next = std::max(*next, gids.back() + 1);
  };
  for (const auto& backend : backends_) {
    const ShardIdentity identity = backend->active().identity();
    continue_after(identity.binary_globals, &next_binary_gid_);
    continue_after(identity.float_globals, &next_float_gid_);
  }
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
  const OnExit leave([this] {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
  });
  if (depth > options_.queue_depth) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::count("serve.shed");
    return net::encode_error(kShedErrorMessage);
  }
  obs::gauge("serve.queue.depth", static_cast<double>(depth));
  obs::count("serve.requests");
  permits_.acquire();
  const OnExit release([this] { permits_.release(); });
  return cloud::dispatch(*this, request);
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
    std::vector<std::vector<BinaryCandidate>> found;
    found.reserve(n_shards);
    for (const auto& backend : backends_) {
      found.push_back(backend->active().binary_candidates(features));
    }
    std::vector<std::vector<idx::ImageId>> locals =
        merge_candidates(found, budget, std::greater<>());
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

  std::vector<std::vector<FloatCandidate>> found;
  found.reserve(backends_.size());
  for (const auto& backend : backends_) {
    found.push_back(backend->active().float_candidates(features));
  }
  const std::vector<std::vector<idx::ImageId>> locals = merge_candidates(
      found, idx::candidate_budget(options_.float_params), std::less<>());
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

std::uint32_t Cluster::apply_mutation(WalOp op, const cloud::StoreInfo& info,
                                      std::vector<std::uint8_t> payload,
                                      std::uint32_t* next_gid) {
  std::lock_guard<std::mutex> lock(mutation_mutex_);
  const std::uint32_t gid = (*next_gid)++;
  WalRecord record;
  record.op = op;
  record.global_id = gid;
  record.info = info;
  record.payload = std::move(payload);
  ShardBackend& backend = *backends_[route(info.geo, gid)];
  const std::uint64_t seq_before = backend.active().last_applied_seq();
  try {
    backend.apply(std::move(record));
  } catch (...) {
    if (backend.active().last_applied_seq() == seq_before) --*next_gid;
    throw;
  }
  return gid;
}

idx::ImageId Cluster::store_binary(const feat::BinaryFeatures& features,
                                   const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  const std::uint32_t gid =
      apply_mutation(WalOp::kStoreBinary, info,
                     idx::serialize_binary(features), &next_binary_gid_);
  obs::count("serve.store.images");
  return gid;
}

idx::ImageId Cluster::store_float(const feat::FloatFeatures& features,
                                  const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  const std::uint32_t gid =
      apply_mutation(WalOp::kStoreFloat, info, idx::serialize_float(features),
                     &next_float_gid_);
  obs::count("serve.store.images");
  return gid;
}

void Cluster::store_global(const feat::ColorHistogram& histogram,
                           const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  apply_mutation(WalOp::kStoreGlobal, info, histogram_payload(histogram),
                 &next_unrouted_);
  obs::count("serve.store.images");
}

void Cluster::store_plain(const cloud::StoreInfo& info) {
  obs::ScopedTimer timer("serve.store.seconds");
  apply_mutation(WalOp::kStorePlain, info, {}, &next_unrouted_);
  obs::count("serve.store.images");
}

void Cluster::seed_binary(const feat::BinaryFeatures& features,
                          const idx::GeoTag& geo, double thumbnail_bytes) {
  apply_mutation(WalOp::kSeedBinary, {0.0, geo, thumbnail_bytes},
                 idx::serialize_binary(features), &next_binary_gid_);
}

void Cluster::seed_float(const feat::FloatFeatures& features,
                         const idx::GeoTag& geo) {
  apply_mutation(WalOp::kSeedFloat, {0.0, geo, 0.0},
                 idx::serialize_float(features), &next_float_gid_);
}

void Cluster::seed_global(const feat::ColorHistogram& histogram,
                          const idx::GeoTag& geo) {
  apply_mutation(WalOp::kSeedGlobal, {0.0, geo, 0.0},
                 histogram_payload(histogram), &next_unrouted_);
}

// ---------------------------------------------------------------------------
// Lookup, stats, durability.

double Cluster::thumbnail_bytes_of(idx::ImageId gid) const {
  for (const auto& backend : backends_) {
    if (const auto bytes = backend->active().thumbnail_bytes_of(gid)) {
      return *bytes;
    }
  }
  return 0.0;
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
  // (gid, shard, local) of every binary-indexed image, in gid order.
  std::vector<std::tuple<std::uint32_t, std::size_t, idx::ImageId>> entries;
  for (std::size_t s = 0; s < backends_.size(); ++s) {
    const ShardIdentity identity = backends_[s]->active().identity();
    for (std::size_t local = 0; local < identity.binary_globals.size();
         ++local) {
      entries.emplace_back(identity.binary_globals[local], s,
                           static_cast<idx::ImageId>(local));
    }
  }
  std::sort(entries.begin(), entries.end());
  idx::FeatureIndex out(options_.binary_params);
  for (const auto& [gid, s, local] : entries) {
    auto [features, geo] = backends_[s]->active().binary_entry(local);
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
