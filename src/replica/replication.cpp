#include "replica/replication.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "serve/shard.hpp"
#include "serve/wal.hpp"
#include "util/byte_io.hpp"

namespace bees::replica {

namespace {

constexpr std::uint32_t kTermMagic = 0x4D545242;  // "BRTM"
constexpr std::uint32_t kTermVersion = 1;

}  // namespace

ReplicationGroup::ReplicationGroup(int shard_id,
                                   const serve::ShardOptions& shard_options,
                                   int followers)
    : shard_id_(shard_id), base_options_(shard_options) {
  if (followers < 0) {
    throw std::invalid_argument("replica: follower count must be >= 0");
  }
  const std::size_t n = static_cast<std::size_t>(followers) + 1;

  // Recover the term first: it names which instance's timeline is
  // authoritative, and therefore which instance the stale ones are caught
  // up from.
  if (!base_options_.dir.empty()) {
    std::ifstream in(term_path(), std::ios::binary);
    if (in) {
      std::vector<std::uint8_t> bytes(
          (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      util::ByteReader reader(bytes);
      if (reader.get_u32() != kTermMagic || reader.get_u32() != kTermVersion) {
        throw std::runtime_error("replica: unrecognized term file");
      }
      const int active = static_cast<int>(reader.get_u32());
      failovers_ = reader.get_u64();
      if (active < 0 || static_cast<std::size_t>(active) >= n) {
        throw std::runtime_error("replica: term names a missing instance");
      }
      active_.store(active, std::memory_order_relaxed);
    }
  }

  instances_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    instances_.push_back(std::make_unique<serve::Shard>(
        shard_id_, instance_options(static_cast<int>(i))));
  }
  alive_.assign(n, true);
  queues_.resize(n);

  // Snapshot-install every instance whose recovered sequence diverges from
  // the active's: the killed primary's stale dir after a failover, or a
  // follower that crashed mid-ship.  The stale instance's recovery pinned
  // its snapshot's chunks; they are released once the installed shard has
  // published its own manifest in that dir.
  const int cur = active_.load(std::memory_order_relaxed);
  serve::Shard& active = *instances_[static_cast<std::size_t>(cur)];
  for (std::size_t i = 0; i < n; ++i) {
    if (instances_[i]->last_applied_seq() == active.last_applied_seq()) {
      continue;
    }
    const std::unique_ptr<serve::Shard> stale = std::move(instances_[i]);
    instances_[i] = std::make_unique<serve::Shard>(
        shard_id_, instance_options(static_cast<int>(i)),
        active.encode_snapshot());
    stale->release_snapshot_pins();
    ++catch_ups_;
    obs::count("replica.catch_up");
  }
}

serve::ShardOptions ReplicationGroup::instance_options(int i) const {
  serve::ShardOptions o = base_options_;
  if (i > 0 && !o.dir.empty()) {
    o.dir += "/replica-" + std::to_string(i);
  }
  return o;
}

std::string ReplicationGroup::term_path() const {
  return base_options_.dir + "/replica.term";
}

void ReplicationGroup::persist_term() const {
  util::ByteWriter writer;
  writer.put_u32(kTermMagic);
  writer.put_u32(kTermVersion);
  writer.put_u32(
      static_cast<std::uint32_t>(active_.load(std::memory_order_relaxed)));
  writer.put_u64(failovers_);
  const std::string tmp = term_path() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(writer.bytes().data()),
              static_cast<std::streamsize>(writer.size()));
    if (!out) throw std::runtime_error("replica: cannot write term file");
  }
  std::filesystem::rename(tmp, term_path());
}

idx::ImageId ReplicationGroup::apply(serve::WalRecord record) {
  const int cur = active_.load(std::memory_order_relaxed);
  serve::Shard& primary = *instances_[static_cast<std::size_t>(cur)];
  const idx::ImageId local = primary.apply(record);
  record.seq = primary.last_applied_seq();

  // Ship exactly the frame the primary's WAL carries, encoded once for
  // every follower.
  ShipFrame frame;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (!alive_[i] || static_cast<int>(i) == cur) continue;
    if (!frame) {
      frame = std::make_shared<const std::vector<std::uint8_t>>(
          serve::encode_wal_frame(record));
    }
    queues_[i].push_back(frame);
    ++ship_records_;
    ship_bytes_ += frame->size();
    ship_lag_max_ = std::max<std::uint64_t>(ship_lag_max_, queues_[i].size());
    obs::count("replica.ship.records");
    obs::count("replica.ship.bytes", static_cast<double>(frame->size()));
    if (queues_[i].size() >= kShipQueueCap) drain_follower(i);
  }
  return local;
}

void ReplicationGroup::drain_follower(std::size_t i) {
  while (!queues_[i].empty()) {
    const ShipFrame frame = std::move(queues_[i].front());
    queues_[i].pop_front();
    serve::WalRecord record;
    if (serve::read_wal_frame(*frame, record) == 0) {
      throw std::runtime_error("replica: damaged ship frame");
    }
    instances_[i]->apply_replicated(record);
  }
}

void ReplicationGroup::drain_all() {
  const int cur = active_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (alive_[i] && static_cast<int>(i) != cur) drain_follower(i);
  }
}

bool ReplicationGroup::kill_active() {
  const int cur = active_.load(std::memory_order_relaxed);
  int standbys = 0;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (alive_[i] && static_cast<int>(i) != cur) ++standbys;
  }
  if (standbys == 0) return false;

  // Parity before promotion: after the drain every live follower has
  // applied the primary's full history, so whichever is promoted answers
  // queries byte-identically to the instance it replaces.  The
  // release-store publishes that fully-drained state to lock-free
  // readers of active().
  drain_all();
  alive_[static_cast<std::size_t>(cur)] = false;

  int best = -1;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (!alive_[i]) continue;
    if (best < 0 || instances_[i]->last_applied_seq() >
                        instances_[static_cast<std::size_t>(best)]
                            ->last_applied_seq()) {
      best = static_cast<int>(i);
    }
  }
  active_.store(best, std::memory_order_release);
  ++failovers_;
  obs::count("replica.failover");
  if (!base_options_.dir.empty()) persist_term();
  return true;
}

void ReplicationGroup::checkpoint() {
  drain_all();
  // Every live instance is checkpointed even when one throws; the first
  // error is rethrown after the loop.
  std::exception_ptr first_error;
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (!alive_[i]) continue;
    try {
      instances_[i]->checkpoint();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

serve::BackendResilience ReplicationGroup::resilience() const {
  serve::BackendResilience r;
  r.failovers = failovers_;
  r.ship_records = ship_records_;
  r.ship_bytes = ship_bytes_;
  r.ship_lag_max = ship_lag_max_;
  r.catch_ups = catch_ups_;
  const int cur = active_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < instances_.size(); ++i) {
    if (alive_[i] && static_cast<int>(i) != cur) ++r.live_standbys;
  }
  return r;
}

serve::BackendFactory make_replicated_factory(int followers) {
  return [followers](int shard_id, const serve::ShardOptions& shard_options) {
    return std::make_unique<ReplicationGroup>(shard_id, shard_options,
                                              followers);
  };
}

}  // namespace bees::replica
