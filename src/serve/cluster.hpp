// The serving cluster frontend: N durable shards behind an admission gate.
// Requests arrive as encoded cloud::rpc envelopes and run on the calling
// thread (the cluster starts no threads); a bounded number are in flight
// at once (excess load is shed with an encoded error reply, never a
// throw), and each is answered through cloud::dispatch — the serial
// server's own dispatcher, instantiated over the cluster.  Binary
// similarity queries take one fan-out, query_binary_batch (dispatch hands
// it each run of query messages; a single query is a batch of one), and
// merge exactly:
//
//   phase 1 gathers each shard's candidate ranking (deterministically
//   tie-broken by global id), merges and truncates to the single-index
//   candidate budget; phase 2 rescores each surviving candidate on the
//   shard that owns its features; detail::finalize_top_k orders the merged
//   hits.  Because every shard assigns local ids in global-id order, the
//   result is byte-identical to one serial cloud::Server for any shard or
//   thread count.
//
// Stores are routed by geotag cell (images of the same place dedupe against
// the same shard's index without fan-out on the write path) or by global id
// when untagged, and are serialized through the cluster mutation lock: the
// write path is single-writer by design — BEES serves a read-dominated
// query workload — which keeps global id assignment, WAL append order, and
// the routing tables trivially consistent.
//
// A durable cluster (data_dir set) logs every shard's mutations inline in
// that shard's wal.log and writes its snapshots through one shared segment
// store: `<data_dir>/segments` unless segment_store.dir names another.
// The same store answers the wire chunk-upload plane.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cloud/server.hpp"
#include "net/transport.hpp"
#include "serve/backend.hpp"
#include "serve/shard.hpp"

namespace bees::serve {

/// Error text of the admission gate's shed reply.  Part of the client
/// contract: a reply decoding to an error with exactly this message is a
/// *retryable* overload signal (back off and resend), unlike other encoded
/// errors which are terminal.  fleet::classify_reply keys on it.
inline constexpr const char* kShedErrorMessage =
    "server overloaded: request shed";

struct ClusterOptions {
  int shards = 1;
  /// Requests handle() executes at once (minimum 1); others admitted wait.
  int threads = 1;
  /// Admission bound: requests in flight (waiting + executing) before new
  /// arrivals are shed with an encoded error reply.
  std::size_t queue_depth = 256;
  /// Durability root (one subdirectory per shard); empty = in-memory only.
  /// When set, construction recovers from the latest snapshots (whose
  /// chunks live in the segment store below) + WAL tails.
  std::string data_dir;
  /// Per-shard mutations between automatic checkpoints; 0 = WAL only.
  std::size_t checkpoint_every = 0;
  /// Content-addressed segment store shared by every shard's snapshots
  /// and by the wire chunk-upload plane (kChunkManifest /
  /// kChunkData / kChunkCommit requests).  Enabled when `segment_store.dir`
  /// is non-empty, and for every durable cluster: with `data_dir` set and
  /// `segment_store.dir` empty, the store lives at `<data_dir>/segments`.
  /// Chunk requests answered without a store decode to the
  /// kChunkStoreDisabledMessage error, and uploaders fall back to whole
  /// images.
  store::SegmentStoreOptions segment_store;
  /// How each shard slot is backed.  Unset = make_single_backend (one bare
  /// Shard per slot, kill_primary refused).  Install
  /// replica::make_replicated_factory to give every shard WAL-shipping
  /// standby followers and deterministic failover; the cluster's query and
  /// mutation planes are oblivious to the choice (see serve/backend.hpp).
  BackendFactory backend_factory;
  idx::FeatureIndexParams binary_params;
  idx::FloatFeatureIndex::Params float_params;
};

class Cluster {
 public:
  explicit Cluster(const ClusterOptions& options = {});

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Serves one encoded rpc envelope through the admission gate, on the
  /// calling thread.  Thread-safe; never throws a request error —
  /// malformed input, internal failures, and shed load all come back as
  /// net::encode_error replies, exactly as cloud::dispatch answers them
  /// (and counted in its `cloud.dispatch.*` metrics).
  std::vector<std::uint8_t> handle(const std::vector<std::uint8_t>& request);

  /// Serves a group of encoded envelopes as one unit through the group
  /// form of cloud::dispatch — the entry point of the fleet simulator's
  /// batcher.  Each run of consecutive binary query messages shares one
  /// query_binary_batch fan-out; any other envelope answers the pending
  /// run first and is then answered alone, so replies[i] is byte-identical
  /// to handle(requests[i]) issued in order, for any group.  Never throws.
  /// Bypasses the admission gate: the caller does its own admission.
  /// Thread-safe.
  std::vector<std::vector<std::uint8_t>> handle_coalesced(
      const std::vector<std::vector<std::uint8_t>>& requests);

  /// The cluster as a net::Transport server handler.
  net::Transport::Handler handler();

  /// Direct-call plane, mirroring cloud::Server's entry points (same
  /// accounting, same results) for seeding and in-process callers.  Store
  /// and seed ids returned are *global* ids.
  ///
  /// The binary fan-out: results[q] is byte-identical to
  /// cloud::Server::query_binary_batch's for any shard/thread/batch-size
  /// combination — per-(query, image) scores are pure pair functions,
  /// each query merges on its own, and the shortlist is truncated with
  /// the same idx::candidate_budget the index uses — while phase 2 takes
  /// one shard lock and one Shard::rescore_binary_batch call per shard
  /// for the whole batch.
  std::vector<idx::QueryResult> query_binary_batch(
      const std::vector<cloud::BinaryBatchItem>& items);
  idx::QueryResult query_float(const feat::FloatFeatures& features,
                               double feature_bytes,
                               int top_k = idx::kDefaultTopK);
  double query_global(const feat::ColorHistogram& histogram,
                      const idx::GeoTag& geo, double feature_bytes = 0.0,
                      double geo_radius_deg = 0.005);
  idx::ImageId store_binary(const feat::BinaryFeatures& features,
                            const cloud::StoreInfo& info = {});
  idx::ImageId store_float(const feat::FloatFeatures& features,
                           const cloud::StoreInfo& info = {});
  void store_global(const feat::ColorHistogram& histogram,
                    const cloud::StoreInfo& info = {});
  void store_plain(const cloud::StoreInfo& info = {});
  void seed_binary(const feat::BinaryFeatures& features,
                   const idx::GeoTag& geo = {}, double thumbnail_bytes = 0.0);
  void seed_float(const feat::FloatFeatures& features,
                  const idx::GeoTag& geo = {});
  void seed_global(const feat::ColorHistogram& histogram,
                   const idx::GeoTag& geo = {});

  /// Thumbnail feedback size of a binary-indexed global id; 0 when unknown.
  double thumbnail_bytes_of(idx::ImageId gid) const;

  /// Aggregated accounting, shaped exactly like one serial server's:
  /// store-side numbers summed over shards, unique locations as the union
  /// of shard location sets, query counters tracked at the frontend.
  /// After recovery, store-derived stats are restored; query counters
  /// restart from zero (queries are not journaled).
  cloud::ServerStats stats() const;

  /// Snapshots every shard now (and truncates their WALs), running the
  /// segment store's compaction trigger; no-op in memory.  A shard whose
  /// checkpoint throws does not stop the others: each is tried, then the
  /// first error is rethrown.
  void checkpoint();

  /// The shared segment store; nullptr for an in-memory cluster without
  /// segment_store.dir.
  store::SegmentStore* segment_store() noexcept { return store_.get(); }

  /// Requests shed by the admission gate since construction.
  std::size_t shed_count() const noexcept {
    return shed_.load(std::memory_order_relaxed);
  }

  int shard_count() const noexcept {
    return static_cast<int>(backends_.size());
  }

  /// Kills shard `shard`'s active instance and promotes a standby at
  /// apply-parity (see ShardBackend::kill_active).  Returns false — and
  /// changes nothing — when the backend has no standby to promote
  /// (single-instance backends, or a group whose standbys are exhausted).
  /// Serialized against mutations, so a kill always lands between applies;
  /// queries before and after a successful kill are answered
  /// byte-identically to a never-killed cluster.
  bool kill_primary(int shard);

  /// Replication/failover counters summed over every shard backend; all
  /// zeros under the default single-instance factory.
  BackendResilience resilience() const;

  /// Every binary-indexed image merged into one standalone index in global
  /// id order — what bees_sim --save-index persists from a cluster run.
  idx::FeatureIndex merged_binary_index() const;
  /// Seeds the cluster from a standalone index snapshot (--load-index).
  void preload_binary(const idx::FeatureIndex& index);

 private:
  /// gid -> owning shard + local id; shard < 0 marks a hole (a global id
  /// whose record was lost to a torn WAL tail — benign: nothing references
  /// an unindexed id).
  struct Location {
    int shard = -1;
    idx::ImageId local = idx::kInvalidImageId;
  };

  std::size_t route(const idx::GeoTag& geo, std::uint32_t gid) const;
  /// Routes, WAL-logs and applies one mutation under the next id of
  /// `next_gid` (caller holds mutation_mutex_) and returns that id.  For
  /// indexed ops the routing-table entry is published *before* the shard
  /// applies — the local id is predicted from the per-shard counter, which
  /// the mutation lock keeps exact — so a concurrent query can never
  /// surface a candidate gid the table lacks.  When the shard throws
  /// without applying (its sequence number did not move), the id, the
  /// routing entry and the local counter are taken back before the
  /// exception propagates: a failed mutation leaves no trace.
  std::uint32_t apply_mutation(WalOp op, const idx::GeoTag& geo,
                               WalRecord record, std::uint32_t* next_gid,
                               std::vector<Location>* locations,
                               std::vector<idx::ImageId>* next_local);

  ClusterOptions options_;
  /// Precedes backends_, whose shards hold pointers to it.
  std::unique_ptr<store::SegmentStore> store_;
  std::vector<std::unique_ptr<ShardBackend>> backends_;

  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> shed_{0};
  /// One permit per request that may execute at once (options_.threads).
  std::counting_semaphore<> permits_;

  /// Serializes stores/seeds: gid assignment, WAL append order, and routing
  /// table growth stay consistent without finer-grained ordering.
  std::mutex mutation_mutex_;
  std::uint32_t next_binary_gid_ = 0;
  std::uint32_t next_float_gid_ = 0;
  std::uint32_t next_unrouted_ = 0;  // routing counter for gid-less ops
  /// Per-shard next local index id (mutation_mutex_ only).
  std::vector<idx::ImageId> next_binary_local_;
  std::vector<idx::ImageId> next_float_local_;

  mutable std::mutex maps_mutex_;
  std::vector<Location> binary_locations_;
  std::vector<Location> float_locations_;

  mutable std::mutex stats_mutex_;
  std::size_t binary_queries_ = 0;
  std::size_t float_queries_ = 0;
  double query_feature_bytes_ = 0.0;
};

}  // namespace bees::serve
