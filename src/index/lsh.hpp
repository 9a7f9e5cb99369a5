// Bit-sampling locality-sensitive hashing for 256-bit ORB descriptors.
// For Hamming space, sampling k random bit positions is the classic LSH
// family: descriptors within distance d collide in one table with
// probability (1 - d/256)^k.  The server index uses several tables to turn
// a batch query into a small candidate set instead of a full scan.
//
// Each table is a flat open-addressed array of 16-byte slots (key, payload
// count, owning pointer to the bucket's payload array), a power of two in
// size, probed linearly from a multiplicative hash of the key and doubled
// once it passes 3/4 load.  A bucket in use holds at least one payload, so
// a count of 0 marks a free slot and every 32-bit key value stays usable.
// A query votes with its whole descriptor set: all keys are computed
// first, then each table's probes run with the home slot of a later probe
// prefetched, so the slot misses overlap instead of queueing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "features/keypoint.hpp"

namespace bees::idx {

struct LshParams {
  int tables = 6;        ///< Independent hash tables (L).
  int bits_per_key = 16; ///< Sampled bit positions per table (k).
  std::uint64_t seed = 0xbee5bee5ULL;  ///< Determines sampled positions.
};

/// Multi-table bit-sampling LSH mapping descriptors to caller-supplied
/// 32-bit payloads (the owning image id).  Buckets hold payload lists;
/// queries count collision votes per payload into a dense vector indexed
/// by payload, so payloads should be small, dense ids.
class DescriptorLsh {
 public:
  explicit DescriptorLsh(const LshParams& params = {});

  /// Inserts one descriptor owned by `payload` into all tables.  A payload
  /// already present at the tail of a bucket is not appended again: all of
  /// one image's descriptors are inserted consecutively, so equal payloads
  /// land adjacently and the per-bucket payload list stays duplicate-free.
  void insert(const feat::Descriptor256& d, std::uint32_t payload);

  /// Adds to votes[payload], for each payload and each query descriptor,
  /// the number of (table, bucket) cells in which that descriptor collides
  /// with at least one of the payload's stored descriptors.  Payloads are
  /// deduplicated per bucket: an image whose descriptors collide k times
  /// in the same (table, key) bucket gets one vote from a query
  /// descriptor, not k — otherwise descriptor-dense images would outrank
  /// genuinely closer ones.  A shorter `votes` is first zero-filled up to
  /// one past the largest payload inserted; a payload that never collides
  /// keeps 0.  Reads the tables only, so concurrent calls are safe.
  void vote(std::span<const feat::Descriptor256> query,
            std::vector<std::uint32_t>& votes) const;

  std::size_t descriptor_count() const noexcept { return inserted_; }
  int tables() const noexcept { return static_cast<int>(positions_.size()); }

  /// Collision probability of a single table for two descriptors at Hamming
  /// distance `d` — the analytic (1 - d/256)^k, used by tests.
  double table_collision_probability(int hamming) const noexcept;

 private:
  /// One bucket; count 0 marks a free slot.  The payload array holds
  /// std::bit_ceil(count) entries, so it is full whenever count is a power
  /// of two.
  struct Slot {
    std::uint32_t key = 0;
    std::uint32_t count = 0;
    std::unique_ptr<std::uint32_t[]> payloads;
  };
  static_assert(sizeof(Slot) == 16);

  struct Table {
    std::vector<Slot> slots;  ///< Power-of-two size; empty until an insert.
    std::size_t used = 0;     ///< Slots holding a bucket.
    int shift = 64;           ///< 64 - log2(slots.size()).

    std::size_t home(std::uint32_t key) const noexcept;
    /// The slot of `key`, claimed (count still 0) when the key is new.
    Slot& find_or_claim(std::uint32_t key);
    void grow();
  };

  std::uint32_t key_for(const feat::Descriptor256& d, std::size_t table) const
      noexcept;

  std::vector<std::vector<int>> positions_;  // per table: sampled bit indices
  std::vector<Table> tables_;
  std::size_t inserted_ = 0;
  std::size_t payload_end_ = 0;  // one past the largest payload inserted
  int bits_per_key_ = 16;
};

}  // namespace bees::idx
