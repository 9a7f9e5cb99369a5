// One shard of the serving cluster: a cloud::Server behind its own
// reader/writer lock (queries share it, mutations hold it alone), made
// durable by a write-ahead log of inline records plus periodic snapshot
// checkpoints written through a content-addressed segment store.  The
// shard speaks in *global* image ids (assigned by the cluster frontend)
// and is the only owner of its id map: a local id -> global id list per
// index, ascending because locals are appended in global-id order.  That
// order is what lets per-shard top-k lists merge into exactly the
// single-server ranking, and what lets a global id be looked up by binary
// search; the snapshot decoder refuses a list that breaks it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "cloud/server.hpp"
#include "serve/wal.hpp"
#include "store/segment_store.hpp"

namespace bees::serve {

struct ShardOptions {
  /// Durability root for this shard (wal.log + snapshot.manifest live
  /// here); empty = in-memory only, no WAL, no checkpoints.
  std::string dir;
  /// Content-addressed segment store (not owned; typically shared across
  /// shards by the cluster).  Required when `dir` is set: snapshots are
  /// written into it as a chunk manifest (snapshot.manifest), so unchanged
  /// index regions dedup across checkpoints and across shards.  WAL
  /// records never touch it.
  store::SegmentStore* segment_store = nullptr;
  /// Mutations between automatic snapshot checkpoints; 0 = never (WAL only,
  /// or explicit checkpoint() calls).
  std::size_t checkpoint_every = 0;
  idx::FeatureIndexParams binary_params;
  idx::FloatFeatureIndex::Params float_params;
};

/// One phase-1 candidate as a shard reports it: the score the cluster
/// merges on, the global id that breaks score ties, and the local id the
/// same shard rescores it under in phase 2.  A local id stays valid on its
/// shard slot: indexes only append, and a promoted standby applied the
/// same records in the same order, so it holds the same local ids.
template <typename Score>
struct Candidate {
  Score score;
  std::uint32_t gid;
  idx::ImageId local;
};
using BinaryCandidate = Candidate<std::uint32_t>;  ///< Score: votes.
using FloatCandidate = Candidate<double>;  ///< Score: centroid distance.

/// Copy of a shard's id map, read by the cluster after recovery (to
/// continue each id space) and for merged-index export.
struct ShardIdentity {
  std::vector<std::uint32_t> binary_globals;  ///< local id -> global id.
  std::vector<std::uint32_t> float_globals;
};

class Shard {
 public:
  /// Opens the shard; when `options.dir` is set, recovers state from the
  /// latest snapshot plus the WAL tail (a torn tail is truncated to the
  /// last intact record, never replayed).  Throws std::invalid_argument
  /// when `options.dir` is set without a segment store, and refuses a dir
  /// holding a snapshot.bin (the inline snapshot format of store-less
  /// durable shards, no longer read) rather than recover it as empty.
  Shard(int id, const ShardOptions& options);

  /// Snapshot install (replica catch-up): the shard's initial state is
  /// `snapshot` (encode_snapshot output of a peer) instead of whatever its
  /// dir holds.  In a durable dir the shard truncates its own wal.log and
  /// publishes a checkpoint of the installed state as its
  /// snapshot.manifest, so the next restart recovers the caught-up shard
  /// rather than the stale one; nothing else under the dir is touched.
  /// Like the recovering constructor, throws std::invalid_argument for a
  /// durable dir without a segment store.
  Shard(int id, const ShardOptions& options,
        const std::vector<std::uint8_t>& snapshot);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Logs (write-ahead) and applies one mutation.  The record's sequence
  /// number is assigned here, and taken only once the append succeeds: a
  /// throwing append leaves the shard (and last_applied_seq()) unchanged.
  /// Returns the local index id for binary/float ops, kInvalidImageId
  /// otherwise.
  idx::ImageId apply(WalRecord record);

  /// Applies a record shipped from a replication primary, *preserving* the
  /// sequence number the primary assigned.  Idempotent below the follower's
  /// seq (a redelivered frame returns kInvalidImageId and changes nothing);
  /// a gap — record.seq beyond last_applied_seq() + 1 — throws
  /// std::logic_error, because applying past a hole would silently diverge
  /// the follower from the primary.  WAL-logged like apply(), so a
  /// follower's own crash recovery replays the shipped history.
  idx::ImageId apply_replicated(const WalRecord& record);

  /// Query phase 1: this shard's candidates, read under one shared lock
  /// and ranked (score desc, global id asc).  Scores come from the index's
  /// configured candidate path — LSH votes, or the ANN shortlist (see
  /// idx::FeatureIndex::candidates).
  std::vector<BinaryCandidate> binary_candidates(
      const feat::BinaryFeatures& features) const;
  /// Query phase 2: exact rescore of each query's `locals[q]` (local ids
  /// this shard reported in phase 1) under one shared lock acquisition,
  /// through FeatureIndex::rescore_batch; returned hits carry global ids.
  /// results[q] is byte-identical to a solo FeatureIndex::rescore of
  /// query q.
  std::vector<idx::QueryResult> rescore_binary_batch(
      const std::vector<const feat::BinaryFeatures*>& features,
      const std::vector<std::vector<idx::ImageId>>& locals,
      const std::vector<int>& top_k) const;

  /// Float-index counterparts; candidates are ranked (distance asc,
  /// global id asc).
  std::vector<FloatCandidate> float_candidates(
      const feat::FloatFeatures& features) const;
  idx::QueryResult rescore_float(const feat::FloatFeatures& features,
                                 const std::vector<idx::ImageId>& locals,
                                 int top_k) const;

  /// Best global-feature similarity on this shard (no accounting).
  double peek_global(const feat::ColorHistogram& histogram,
                     const idx::GeoTag& geo, double geo_radius_deg) const;

  /// Thumbnail feedback size of binary-indexed global id `gid`; nullopt
  /// when this shard does not hold it.
  std::optional<double> thumbnail_bytes_of(std::uint32_t gid) const;
  /// One indexed image's features + geotag (copied out under the lock),
  /// for merged-index export.
  std::pair<feat::BinaryFeatures, idx::GeoTag> binary_entry(
      idx::ImageId local) const;

  cloud::ServerStats stats() const;
  std::vector<std::uint64_t> location_keys() const;
  ShardIdentity identity() const;
  std::uint64_t last_applied_seq() const;

  /// The shard's full state as snapshot bytes (the same encoding
  /// checkpoints persist) — what a replication group ships to catch a
  /// stale follower up before streaming the WAL tail.
  std::vector<std::uint8_t> encode_snapshot();

  /// Writes a snapshot now (chunks into the store, then an atomic tmp+rename
  /// publish of its manifest) and truncates the WAL it makes redundant.
  /// No-op without a durability dir.
  void checkpoint();

  /// Unpins the chunks of the snapshot this shard recovered or last
  /// published, for a stale shard whose dir a snapshot-install shard has
  /// since taken over: once that shard's manifest is published, nothing
  /// references the superseded snapshot.  The destructor does not unpin,
  /// because a shard's dir keeps naming its chunks after it closes.
  void release_snapshot_pins();

  int id() const noexcept { return id_; }

 private:
  /// The shared tail of apply and apply_replicated: appends `record` (its
  /// seq already chosen), then advances the sequence, applies, and runs
  /// the automatic checkpoint when one is due.
  idx::ImageId log_and_apply_locked(const WalRecord& record);
  void apply_locked(const WalRecord& record, idx::ImageId* local_out);
  /// Publishes a snapshot and resets the WAL; with `compact`, then runs
  /// the segment store's compaction trigger.
  void checkpoint_locked(bool compact = true);
  void recover();
  std::vector<std::uint8_t> encode_snapshot_locked();
  void restore_snapshot(const std::vector<std::uint8_t>& bytes);
  std::string wal_path() const;
  std::string manifest_path() const;

  const int id_;
  ShardOptions options_;
  /// Shared by the const read paths, exclusive for apply, apply_replicated,
  /// checkpoint and encode_snapshot.  Every const path below the shard is
  /// pure, so concurrent readers need nothing more.
  mutable std::shared_mutex mutex_;
  cloud::Server server_;
  /// Local id -> global id, ascending.
  std::vector<std::uint32_t> binary_globals_;
  std::vector<std::uint32_t> float_globals_;
  std::uint64_t seq_ = 0;
  std::size_t mutations_since_checkpoint_ = 0;
  std::unique_ptr<WriteAheadLog> wal_;
  /// Chunks the current snapshot manifest pins; rotated — new pinned, old
  /// unpinned — on every checkpoint.
  std::vector<store::ChunkKey> snapshot_pins_;
};

}  // namespace bees::serve
