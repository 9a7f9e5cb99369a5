// Per-shard primary -> follower replication by WAL shipping.
//
// A ReplicationGroup is one cluster shard slot backed by 1 + F Shard
// instances: the active primary plus F standby followers.  Every mutation
// the cluster applies to the primary ships as exactly the frame the
// primary's on-disk WAL carries: serve::encode_wal_frame, the log's own
// frame encoder, builds it and serve::read_wal_frame, the log's own
// reader, opens it on the follower — this file frames nothing itself.
// The body is inline, so a frame is self-contained: it references nothing
// in the segment store, and the primary's checkpoints and compactions
// cannot invalidate a frame still queued to a follower.  One frame is
// encoded per mutation and shared by every follower's queue.
//
// Shipping is asynchronous with a bounded per-follower queue: frames
// accumulate until the queue reaches kShipQueueCap, then the follower
// drains (applies every queued frame; its last_applied_seq() is how far
// it got).
// Queries never read followers, so follower lag is invisible to replies.
// The two events that demand parity force a drain first:
//
//   kill_active() — deterministic failover.  Every live follower is
//   drained to the primary's sequence, the primary is marked dead, and the
//   follower with the highest applied sequence (ties to the lowest
//   index) is promoted.  Because promotion happens at apply-parity, the
//   promoted instance's state is byte-for-byte the state the primary would
//   have had, and every subsequent query is answered identically to a
//   never-killed group.  Durable groups persist the promotion in a term
//   file so a restart recovers the promoted timeline, and snapshot-install
//   any instance the term left behind (the killed primary's stale dir, a
//   follower that crashed mid-ship) from the active's encode_snapshot().
//   An install replaces only that instance's wal.log and snapshot.manifest:
//   instance 0's dir is the group dir, which also holds the term file and
//   every follower's dir.
//
//   checkpoint() — every live instance snapshots its own durable dir,
//   also when another's checkpoint throws (the first error is rethrown).
//
// A follower detects redelivery (seq <= its last applied: idempotent
// no-op) and gaps (seq skips ahead: std::logic_error) — see
// Shard::apply_replicated.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "serve/backend.hpp"
#include "serve/wal.hpp"

namespace bees::replica {

/// Frames queued to one follower before it is synchronously drained.
inline constexpr std::size_t kShipQueueCap = 64;

class ReplicationGroup final : public serve::ShardBackend {
 public:
  /// `shard_options` describes the primary; follower j lives under
  /// `<dir>/replica-<j>` (in-memory when dir is empty) and shares the
  /// segment store, checkpoint cadence, and index params.  `followers`
  /// standbys stand behind the primary (>= 0; 0 degenerates to an
  /// unreplicated slot whose kill_active is refused).  With a durable dir,
  /// construction recovers every instance from its own snapshot + WAL
  /// tail, restores the term (which instance is active, how many failovers
  /// happened), and catches stale instances up by snapshot install.
  ReplicationGroup(int shard_id, const serve::ShardOptions& shard_options,
                   int followers);

  // Queries read active() without the cluster's mutation lock, so the
  // active index is published atomically: kill_active() fully drains the
  // promoted follower *before* the release-store, and a query that loads
  // the new index (acquire) sees its complete state.
  serve::Shard& active() override {
    return *instances_[static_cast<std::size_t>(
        active_.load(std::memory_order_acquire))];
  }
  const serve::Shard& active() const override {
    return *instances_[static_cast<std::size_t>(
        active_.load(std::memory_order_acquire))];
  }

  idx::ImageId apply(serve::WalRecord record) override;
  void checkpoint() override;
  bool kill_active() override;
  serve::BackendResilience resilience() const override;

  /// Brings every live follower to the active's sequence (applies all
  /// queued ship frames).  kill_active and checkpoint call this; tests use
  /// it to assert parity directly.
  void drain_all();

  int instance_count() const {
    return static_cast<int>(instances_.size());
  }
  bool instance_alive(int i) const {
    return alive_[static_cast<std::size_t>(i)];
  }
  int active_index() const {
    return active_.load(std::memory_order_acquire);
  }
  /// Test access to a specific instance (e.g. comparing a follower's state
  /// against the primary's, or its last_applied_seq(), after a drain).
  serve::Shard& instance(int i) {
    return *instances_[static_cast<std::size_t>(i)];
  }

 private:
  /// One mutation's frame (len|crc|body, as on disk), shared by every
  /// follower it was queued to.
  using ShipFrame = std::shared_ptr<const std::vector<std::uint8_t>>;

  serve::ShardOptions instance_options(int i) const;
  std::string term_path() const;
  void persist_term() const;
  void drain_follower(std::size_t i);

  const int shard_id_;
  serve::ShardOptions base_options_;
  std::vector<std::unique_ptr<serve::Shard>> instances_;
  std::vector<bool> alive_;
  /// Per-follower ship queues (index parallel to instances_; the active's
  /// queue is always empty).
  std::vector<std::deque<ShipFrame>> queues_;
  std::atomic<int> active_{0};
  std::uint64_t failovers_ = 0;
  std::uint64_t ship_records_ = 0;
  std::uint64_t ship_bytes_ = 0;
  std::uint64_t ship_lag_max_ = 0;
  std::uint64_t catch_ups_ = 0;
};

/// A BackendFactory giving every cluster shard slot `followers` standbys:
/// plug into serve::ClusterOptions::backend_factory.
serve::BackendFactory make_replicated_factory(int followers);

}  // namespace bees::replica
