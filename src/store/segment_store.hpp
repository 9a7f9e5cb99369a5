// Content-addressed chunked segment store (the AFF4 shape, see DESIGN §12):
// chunks are compressed independently, on the calling thread and outside
// the store lock, and packed into append-only segment files; a directory
// maps ChunkKey -> (segment, offset); reads go through an LRU raw-chunk
// cache of kChunkCacheBytes; compaction rewrites live chunks out of
// dead-heavy segments and deletes them, bounding disk growth.
//
// One store instance serves two clients: wire-level chunk uploads
// (cloud/serve chunk endpoints) and the serving layer's snapshot
// checkpoints (every durable shard publishes its snapshot.manifest over
// it; WAL records stay inline in each shard's log).  Everything is keyed
// by content, so identical payloads — retried uploads, duplicate images
// across devices, unchanged snapshot regions, a replication group's
// primary and follower snapshots — occupy one copy, and a replicated
// reopen reads the shared snapshot chunks through the cache.
//
// Liveness is reference-counted by the owners: pin() marks a chunk live
// (snapshot manifests, committed uploads), unpin() releases it;
// compaction drops only unpinned chunks.  After a restart the directory is
// rebuilt by scanning segments (torn tails are truncated) and owners
// re-pin whatever their recovered manifests reference.
//
// Writes fail loudly.  One record writer serves puts and compaction
// moves: it flushes every record and checks the stream after each segment
// open, write and flush.  A put that cannot write throws
// std::runtime_error with its key left out of the directory and no pin
// taken; a compaction that cannot move a live chunk throws before it
// deletes the victim.  A segment whose write failed takes no more records
// (the next one opens a fresh segment; a reopen truncates its torn tail).
//
// Thread-safe: all public methods may be called concurrently.  Determinism:
// the same put sequence produces byte-identical segment files (chunks are
// appended in call order).
#pragma once

#include <cstdint>
#include <fstream>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "store/chunk.hpp"

namespace bees::store {

/// Capacity of the LRU raw-chunk read cache (bytes of raw chunk data).
inline constexpr std::uint64_t kChunkCacheBytes = 8u << 20;

struct SegmentStoreOptions {
  /// Segment directory; empty = memory-backed segments (tests, pure-wire
  /// dedup without durability).
  std::string dir;
  /// Default chunking interval offered to callers via chunk_size().
  std::uint32_t chunk_size = 64 * 1024;
  /// A segment rolls over once its stored bytes pass this.
  std::uint64_t segment_target_bytes = 4u << 20;
  /// Soft disk ceiling: maybe_compact() compacts (repeatedly, hardest-dead
  /// segment first) while total segment bytes exceed this.  0 = unbounded.
  std::uint64_t disk_ceiling_bytes = 0;
  /// maybe_compact() also rewrites any sealed segment whose dead-byte
  /// fraction exceeds this ratio.
  double compact_dead_ratio = 0.5;
};

class SegmentStore {
 public:
  /// Opens (or creates) the store.  With a directory, existing segments are
  /// scanned to rebuild the chunk directory; a torn final record is
  /// truncated away, like a torn WAL tail.  Throws util::DecodeError on a
  /// structurally corrupt segment header.
  explicit SegmentStore(SegmentStoreOptions options);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  std::uint32_t chunk_size() const noexcept { return options_.chunk_size; }
  const SegmentStoreOptions& options() const noexcept { return options_; }

  /// Stores one raw chunk (no-op if its key is already present) and returns
  /// its key.
  ChunkKey put(std::span<const std::uint8_t> raw);

  /// Stores every chunk of `payload` under `manifest` (built by the caller
  /// via build_manifest, typically).  Missing chunks are compressed outside
  /// the store lock, then appended in manifest order — the resulting
  /// segment bytes are identical to put() per chunk.  Returns the number
  /// of chunks newly written (the rest were dedup hits).
  ///
  /// With `pin_chunks`, every manifest entry is pinned in the same critical
  /// section that guarantees its presence, so a concurrent compaction can
  /// never reclaim a chunk between the put and the pin (the TOCTOU that
  /// plain put-then-pin has when several owners share one store).  On
  /// return every chunk is guaranteed present and, if requested, pinned.
  std::size_t put_manifest_payload(const Manifest& manifest,
                                   std::span<const std::uint8_t> payload,
                                   bool pin_chunks = false);

  /// Convenience: build_manifest + put_manifest_payload.
  Manifest put_payload(std::span<const std::uint8_t> payload);
  Manifest put_payload(std::span<const std::uint8_t> payload,
                       std::uint32_t chunk_size);

  /// build_manifest + put_manifest_payload with pin_chunks: the returned
  /// manifest's chunks are already pinned (atomically with their append).
  /// The owner must unpin them when the referencing record dies.
  Manifest put_payload_pinned(std::span<const std::uint8_t> payload);

  bool contains(const ChunkKey& key) const;

  /// Raw bytes of one chunk, via the LRU cache.  Throws util::DecodeError
  /// if the key is absent or the stored bytes fail CRC/hash verification.
  std::vector<std::uint8_t> get(const ChunkKey& key);

  /// Reassembles a whole payload from its manifest (get() per chunk) and
  /// verifies the whole-payload content hash.  Throws util::DecodeError on
  /// any missing or corrupt chunk.
  std::vector<std::uint8_t> get_payload(const Manifest& manifest);

  /// Liveness refcounts.  pin() on an absent key throws util::DecodeError
  /// (a manifest referencing a missing chunk must fail loudly), and is
  /// all-or-nothing: it checks every key before pinning any, so a missing
  /// one leaves nothing pinned.  unpin() on an unpinned or absent key is
  /// ignored.
  void pin(const std::vector<ChunkKey>& keys);
  void unpin(const ChunkKey& key);
  void unpin(const std::vector<ChunkKey>& keys);

  /// Rewrites live (pinned) chunks out of every sealed segment whose dead
  /// fraction exceeds `dead_ratio`, then deletes those segments.  Returns
  /// the number of segments reclaimed.  Unpinned chunks in a reclaimed
  /// segment are dropped (wire-upload chunks not yet committed simply get
  /// re-sent).  Chunk keys, manifests, and get() results are invariant
  /// across compaction.
  std::size_t compact(double dead_ratio);

  /// Compaction trigger: compacts by options().compact_dead_ratio, and
  /// while disk_bytes() exceeds the configured ceiling keeps reclaiming the
  /// deadest sealed segment.  Returns segments reclaimed.
  std::size_t maybe_compact();

  struct Stats {
    std::uint64_t chunks = 0;          ///< Distinct keys present.
    std::uint64_t segments = 0;        ///< Segment files (incl. open one).
    std::uint64_t disk_bytes = 0;      ///< Total segment bytes on disk.
    std::uint64_t live_bytes = 0;      ///< Stored bytes of pinned chunks.
    std::uint64_t dead_bytes = 0;      ///< Stored bytes of unpinned chunks.
    std::uint64_t raw_bytes = 0;       ///< Raw bytes of all chunks.
    std::uint64_t dedup_hits = 0;      ///< put()s that found the key.
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t compactions = 0;     ///< Segments reclaimed to date.
  };
  Stats stats() const;

  std::uint64_t disk_bytes() const;

 private:
  struct Entry {
    std::uint64_t segment = 0;  ///< Segment id owning the stored bytes.
    std::uint64_t offset = 0;   ///< Offset of the stored bytes (past header).
    std::uint32_t stored = 0;   ///< Stored (possibly compressed) length.
    std::uint32_t raw = 0;      ///< Raw length (== key.size).
    std::uint8_t encoding = 0;  ///< 0 = raw, 1 = lz.
    std::uint32_t pins = 0;
  };

  struct Segment {
    std::uint64_t id = 0;
    std::uint64_t bytes = 0;       ///< File length (header + records).
    std::uint64_t dead_bytes = 0;  ///< Stored bytes of unpinned chunks.
    std::uint64_t live_bytes = 0;  ///< Stored bytes of pinned chunks.
    bool sealed = false;
    std::vector<std::uint8_t> memory;  ///< Backing bytes in memory mode.
  };

  struct Prepared {
    ChunkKey key;
    std::vector<std::uint8_t> stored;
    std::uint8_t encoding = 0;
  };

  std::string segment_path(std::uint64_t id) const;
  /// Seals the open segment and opens the next; throws (registering
  /// nothing) when the new file cannot be written.
  void open_new_segment_locked();
  /// Writes and flushes `bytes` to segment `segment_id`'s stream; on a bad
  /// stream seals that segment and throws std::runtime_error.
  void write_out_locked(std::uint64_t segment_id,
                        const std::vector<std::uint8_t>& bytes);
  /// The one record writer: appends a chunk record to the open segment
  /// (rolling over first when it is sealed or full) and returns where the
  /// stored bytes landed.  Leaves the directory to the caller.
  Entry write_record_locked(const ChunkKey& key,
                            std::span<const std::uint8_t> stored,
                            std::uint8_t encoding);
  void scan_existing_locked();
  /// Appends one prepared chunk record to the open segment (dedup-checked).
  void append_locked(const Prepared& prepared);
  /// Pins one present key; the caller holds mutex_.
  void pin_locked(const ChunkKey& key);
  static Prepared prepare(std::span<const std::uint8_t> raw);
  std::vector<std::uint8_t> read_stored_locked(const Entry& entry);
  void cache_insert_locked(const ChunkKey& key, std::vector<std::uint8_t> raw);
  std::size_t compact_locked(double dead_ratio, bool enforce_ceiling);
  void rewrite_segment_locked(std::uint64_t segment_id);

  SegmentStoreOptions options_;

  mutable std::mutex mutex_;
  std::unordered_map<ChunkKey, Entry, ChunkKeyHasher> directory_;
  std::map<std::uint64_t, Segment> segments_;  ///< Ordered for determinism.
  std::uint64_t next_segment_id_ = 0;
  std::uint64_t open_segment_ = 0;
  std::ofstream out_;  ///< Append stream of the open segment (dir mode).

  /// LRU raw-chunk cache: list front = most recent.
  std::list<std::pair<ChunkKey, std::vector<std::uint8_t>>> lru_;
  std::unordered_map<ChunkKey, decltype(lru_)::iterator, ChunkKeyHasher>
      cache_index_;
  std::uint64_t cache_bytes_ = 0;

  std::uint64_t dedup_hits_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace bees::store
