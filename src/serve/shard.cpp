#include "serve/shard.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <stdexcept>

#include "index/persistence.hpp"
#include "index/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/byte_io.hpp"

namespace bees::serve {
namespace {

// "BSRV" little-endian; distinct from the index snapshot magics so a shard
// snapshot handed to load_index_snapshot (or vice versa) fails loudly.
constexpr std::uint32_t kShardMagic = 0x56525342;
constexpr std::uint32_t kShardVersion = 1;
// "BSMN" little-endian: the snapshot.manifest file — a chunk manifest
// standing in for the snapshot bytes held by the store.
constexpr std::uint32_t kManifestFileMagic = 0x4E4D5342;

/// A durable shard writes through a segment store; there is no other
/// on-disk format to fall back on.
void require_store(const ShardOptions& options) {
  if (!options.dir.empty() && options.segment_store == nullptr) {
    throw std::invalid_argument("shard: durable dir " + options.dir +
                                " needs a segment store");
  }
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("shard snapshot: cannot open " + path);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("shard snapshot: write failed " + path);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("shard snapshot: cannot open " + path);
  return {(std::istreambuf_iterator<char>(in)),
          std::istreambuf_iterator<char>()};
}

/// Reads `n` gid varints into an id list, which must be strictly
/// ascending: global-id lookups binary-search it.
std::vector<std::uint32_t> get_gids(util::ByteReader& r, std::size_t n) {
  std::vector<std::uint32_t> gids(n);
  for (std::uint32_t& gid : gids) {
    gid = static_cast<std::uint32_t>(r.get_varint());
  }
  if (std::adjacent_find(gids.begin(), gids.end(),
                         std::greater_equal<>()) != gids.end()) {
    throw util::DecodeError("shard snapshot: id list not strictly ascending");
  }
  return gids;
}

}  // namespace

Shard::Shard(int id, const ShardOptions& options)
    : id_(id),
      options_(options),
      server_(options.binary_params, options.float_params) {
  require_store(options_);
  if (options_.dir.empty()) return;
  std::filesystem::create_directories(options_.dir);
  recover();
  wal_ = std::make_unique<WriteAheadLog>(wal_path());
}

Shard::Shard(int id, const ShardOptions& options,
             const std::vector<std::uint8_t>& snapshot)
    : id_(id),
      options_(options),
      server_(options.binary_params, options.float_params) {
  require_store(options_);
  restore_snapshot(snapshot);
  if (!options_.dir.empty()) {
    // The installed snapshot supersedes the stale history under dir.  Only
    // what the shard owns is replaced — a replication group keeps its term
    // file and follower dirs inside instance 0's dir.  The stale log is
    // truncated before the new manifest is published: a crash in between
    // leaves the old snapshot with no tail (still stale, so caught up
    // again), never the installed snapshot followed by stale records.
    std::filesystem::create_directories(options_.dir);
    wal_ = std::make_unique<WriteAheadLog>(wal_path());
    wal_->reset();
    // Durably seed the installed state, but leave the shared store
    // uncompacted: at a reopen this runs while the cluster is still opening
    // its shards, and the ones it opens later have not re-pinned their
    // snapshot chunks yet.
    checkpoint_locked(/*compact=*/false);
  }
}

std::string Shard::wal_path() const { return options_.dir + "/wal.log"; }

std::string Shard::manifest_path() const {
  return options_.dir + "/snapshot.manifest";
}

idx::ImageId Shard::apply(WalRecord record) {
  std::lock_guard lock(mutex_);
  record.seq = seq_ + 1;
  return log_and_apply_locked(record);
}

idx::ImageId Shard::apply_replicated(const WalRecord& record) {
  std::lock_guard lock(mutex_);
  if (record.seq <= seq_) return idx::kInvalidImageId;  // redelivery: no-op
  if (record.seq != seq_ + 1) {
    throw std::logic_error("shard: replicated record skips a sequence number");
  }
  return log_and_apply_locked(record);
}

idx::ImageId Shard::log_and_apply_locked(const WalRecord& record) {
  // Write-ahead: log before apply.  The sequence number is taken only once
  // the record is logged, so a failed append leaves the shard unchanged.
  if (wal_) wal_->append(record);
  seq_ = record.seq;
  idx::ImageId local = idx::kInvalidImageId;
  apply_locked(record, &local);
  ++mutations_since_checkpoint_;
  if (options_.checkpoint_every > 0 &&
      mutations_since_checkpoint_ >= options_.checkpoint_every) {
    checkpoint_locked();
  }
  return local;
}

void Shard::apply_locked(const WalRecord& record, idx::ImageId* local_out) {
  idx::ImageId local = idx::kInvalidImageId;
  switch (record.op) {
    case WalOp::kStoreBinary:
      local = server_.store_binary(idx::deserialize_binary(record.payload),
                                   record.info);
      binary_globals_.push_back(record.global_id);
      break;
    case WalOp::kSeedBinary:
      local = static_cast<idx::ImageId>(binary_globals_.size());
      server_.seed_binary(idx::deserialize_binary(record.payload),
                          record.info.geo, record.info.thumbnail_bytes);
      binary_globals_.push_back(record.global_id);
      break;
    case WalOp::kStoreFloat:
      local = server_.store_float(idx::deserialize_float(record.payload),
                                  record.info);
      float_globals_.push_back(record.global_id);
      break;
    case WalOp::kSeedFloat:
      local = static_cast<idx::ImageId>(float_globals_.size());
      server_.seed_float(idx::deserialize_float(record.payload),
                         record.info.geo);
      float_globals_.push_back(record.global_id);
      break;
    case WalOp::kStoreGlobal:
    case WalOp::kSeedGlobal: {
      util::ByteReader r(record.payload);
      const feat::ColorHistogram histogram = idx::get_histogram(r);
      if (!r.done()) throw util::DecodeError("histogram: trailing bytes");
      if (record.op == WalOp::kStoreGlobal) {
        server_.store_global(histogram, record.info);
      } else {
        server_.seed_global(histogram, record.info.geo);
      }
      break;
    }
    case WalOp::kStorePlain:
      server_.store_plain(record.info);
      break;
  }
  if (local_out) *local_out = local;
}

std::vector<BinaryCandidate> Shard::binary_candidates(
    const feat::BinaryFeatures& features) const {
  std::shared_lock lock(mutex_);
  const auto locals = server_.binary_index().candidates(features);
  std::vector<BinaryCandidate> out;
  out.reserve(locals.size());
  // local -> global is monotone (locals are appended in global-id order),
  // so the (votes desc, local asc) ranking is also (votes desc, gid asc).
  for (const auto& [local, votes] : locals) {
    out.push_back({votes, binary_globals_[local], local});
  }
  return out;
}

std::vector<idx::QueryResult> Shard::rescore_binary_batch(
    const std::vector<const feat::BinaryFeatures*>& features,
    const std::vector<std::vector<idx::ImageId>>& locals,
    const std::vector<int>& top_k) const {
  std::shared_lock lock(mutex_);
  std::vector<idx::QueryResult> results =
      server_.binary_index().rescore_batch(features, locals, top_k);
  for (idx::QueryResult& result : results) {
    for (auto& hit : result.hits) hit.id = binary_globals_[hit.id];
    if (result.best_id != idx::kInvalidImageId) {
      result.best_id = binary_globals_[result.best_id];
    }
  }
  return results;
}

std::vector<FloatCandidate> Shard::float_candidates(
    const feat::FloatFeatures& features) const {
  std::shared_lock lock(mutex_);
  const auto locals = server_.float_index().centroid_candidates(features);
  std::vector<FloatCandidate> out;
  out.reserve(locals.size());
  for (const auto& [dist, local] : locals) {
    out.push_back({dist, float_globals_[local], local});
  }
  return out;
}

idx::QueryResult Shard::rescore_float(const feat::FloatFeatures& features,
                                      const std::vector<idx::ImageId>& locals,
                                      int top_k) const {
  std::shared_lock lock(mutex_);
  idx::QueryResult result =
      server_.float_index().rescore(features, locals, top_k);
  for (auto& hit : result.hits) hit.id = float_globals_[hit.id];
  if (result.best_id != idx::kInvalidImageId) {
    result.best_id = float_globals_[result.best_id];
  }
  return result;
}

double Shard::peek_global(const feat::ColorHistogram& histogram,
                          const idx::GeoTag& geo,
                          double geo_radius_deg) const {
  std::shared_lock lock(mutex_);
  return server_.peek_global(histogram, geo, geo_radius_deg);
}

std::optional<double> Shard::thumbnail_bytes_of(std::uint32_t gid) const {
  std::shared_lock lock(mutex_);
  const auto it =
      std::lower_bound(binary_globals_.begin(), binary_globals_.end(), gid);
  if (it == binary_globals_.end() || *it != gid) return std::nullopt;
  return server_.thumbnail_bytes_of(
      static_cast<idx::ImageId>(it - binary_globals_.begin()));
}

std::pair<feat::BinaryFeatures, idx::GeoTag> Shard::binary_entry(
    idx::ImageId local) const {
  std::shared_lock lock(mutex_);
  return {server_.binary_index().features_of(local),
          server_.binary_index().geo_of(local)};
}

cloud::ServerStats Shard::stats() const {
  std::shared_lock lock(mutex_);
  return server_.stats();
}

std::vector<std::uint64_t> Shard::location_keys() const {
  std::shared_lock lock(mutex_);
  return server_.location_keys();
}

ShardIdentity Shard::identity() const {
  std::shared_lock lock(mutex_);
  return {binary_globals_, float_globals_};
}

std::uint64_t Shard::last_applied_seq() const {
  std::shared_lock lock(mutex_);
  return seq_;
}

std::vector<std::uint8_t> Shard::encode_snapshot() {
  std::lock_guard lock(mutex_);
  return encode_snapshot_locked();
}

void Shard::checkpoint() {
  std::lock_guard lock(mutex_);
  checkpoint_locked();
}

void Shard::release_snapshot_pins() {
  std::lock_guard lock(mutex_);
  if (options_.segment_store != nullptr) {
    options_.segment_store->unpin(snapshot_pins_);
  }
  snapshot_pins_.clear();
}

void Shard::checkpoint_locked(bool compact) {
  if (options_.dir.empty()) return;
  store::SegmentStore& st = *options_.segment_store;
  // Snapshot bytes live as chunks (compressed by the store, unchanged
  // regions deduped against prior checkpoints and other shards); the file
  // published here is just the manifest.  The new generation is pinned
  // atomically with the put and before the manifest is published — shards
  // share this store, and a concurrent compaction (another shard's
  // checkpoint) could otherwise reclaim the unpinned chunks and leave a
  // published manifest referencing nothing.  The old generation is
  // unpinned only after publish, so chunks shared between the two never
  // transit a dead state.  A put that cannot write throws with nothing
  // pinned: the old manifest and the WAL tail it needs stay as they are.
  const store::Manifest manifest =
      st.put_payload_pinned(encode_snapshot_locked());
  util::ByteWriter w;
  w.put_u32(kManifestFileMagic);
  w.put_u32(kShardVersion);
  store::put_manifest(w, manifest);
  const std::string tmp = manifest_path() + ".tmp";
  try {
    write_file(tmp, w.bytes());
    std::filesystem::rename(tmp, manifest_path());
  } catch (...) {
    st.unpin(manifest.chunks);  // publish failed: old snapshot stands
    throw;
  }
  st.unpin(snapshot_pins_);
  snapshot_pins_ = manifest.chunks;
  if (wal_) wal_->reset();
  mutations_since_checkpoint_ = 0;
  if (compact) st.maybe_compact();
  obs::count("serve.checkpoint");
}

std::vector<std::uint8_t> Shard::encode_snapshot_locked() {
  util::ByteWriter w;
  w.put_u32(kShardMagic);
  w.put_u32(kShardVersion);
  w.put_u64(seq_);

  const cloud::ServerStats& st = server_.stats();
  w.put_u64(st.images_stored);
  w.put_f64(st.image_bytes_received);
  w.put_f64(st.feature_bytes_received);
  w.put_u64(st.binary_queries);
  w.put_u64(st.float_queries);
  const std::vector<std::uint64_t> keys = server_.location_keys();
  w.put_varint(keys.size());
  for (std::uint64_t key : keys) w.put_u64(key);

  w.put_varint(binary_globals_.size());
  for (std::uint32_t gid : binary_globals_) w.put_varint(gid);
  for (std::size_t i = 0; i < binary_globals_.size(); ++i) {
    w.put_f64(server_.thumbnail_bytes_of(static_cast<idx::ImageId>(i)));
  }
  w.put_varint(float_globals_.size());
  for (std::uint32_t gid : float_globals_) w.put_varint(gid);

  const auto binary = idx::encode_index_snapshot(server_.binary_index());
  w.put_varint(binary.size());
  w.put_bytes(binary);
  const auto floats = idx::encode_float_index_snapshot(server_.float_index());
  w.put_varint(floats.size());
  w.put_bytes(floats);

  const auto& globals = server_.global_entries();
  w.put_varint(globals.size());
  for (const auto& [histogram, geo] : globals) {
    idx::put_histogram(w, histogram);
    idx::put_geo(w, geo);
  }
  return w.take();
}

void Shard::recover() {
  const std::string legacy = options_.dir + "/snapshot.bin";
  if (std::filesystem::exists(legacy)) {
    // The inline snapshot of a store-less durable shard.  Recovering
    // without it would silently serve an empty or partial index.
    throw std::runtime_error("shard: " + legacy +
                             " is a store-less snapshot, which this build "
                             "does not read");
  }
  store::SegmentStore* st = options_.segment_store;
  if (std::filesystem::exists(manifest_path())) {
    const auto file = read_file(manifest_path());
    util::ByteReader r(file);
    if (r.get_u32() != kManifestFileMagic) {
      throw util::DecodeError("shard snapshot manifest: bad magic");
    }
    if (r.get_u32() != kShardVersion) {
      throw util::DecodeError("shard snapshot manifest: unsupported version");
    }
    const store::Manifest manifest = store::get_manifest(r);
    if (!r.done()) {
      throw util::DecodeError("shard snapshot manifest: trailing bytes");
    }
    // get_payload verifies every chunk (and the whole-payload hash), so a
    // store that lost or corrupted snapshot chunks fails loudly here.
    restore_snapshot(st->get_payload(manifest));
    st->pin(manifest.chunks);
    snapshot_pins_ = manifest.chunks;
  }

  // Replay the WAL tail the snapshot does not cover; seq_ advances to the
  // last applied record so new mutations continue the sequence.
  const WalReplayResult replayed =
      replay_wal(wal_path(), seq_, [this](const WalRecord& record) {
        apply_locked(record, nullptr);
        seq_ = record.seq;
      });
  if (replayed.dropped > 0) {
    // Truncate the torn tail so future appends extend the valid prefix
    // instead of hiding behind garbage.
    std::filesystem::resize_file(wal_path(), replayed.valid_bytes);
  }
  obs::count("serve.recovery.replayed",
             static_cast<double>(replayed.applied));
}

void Shard::restore_snapshot(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader r(bytes);
  if (r.get_u32() != kShardMagic) {
    throw util::DecodeError("shard snapshot: bad magic");
  }
  if (r.get_u32() != kShardVersion) {
    throw util::DecodeError("shard snapshot: unsupported version");
  }
  seq_ = r.get_u64();

  cloud::ServerStats stats;
  stats.images_stored = static_cast<std::size_t>(r.get_u64());
  stats.image_bytes_received = r.get_f64();
  stats.feature_bytes_received = r.get_f64();
  stats.binary_queries = static_cast<std::size_t>(r.get_u64());
  stats.float_queries = static_cast<std::size_t>(r.get_u64());
  // Every count is checked against the bytes left before anything is sized
  // from it: 8 bytes per key, and per binary image a gid varint (>= 1 byte)
  // plus an 8-byte thumbnail size; >= 1 byte per float gid.
  const auto n_keys = r.get_varint();
  if (n_keys > r.remaining() / 8) {
    throw util::DecodeError("shard snapshot: key count exceeds buffer");
  }
  std::vector<std::uint64_t> keys(n_keys);
  for (std::uint64_t& key : keys) key = r.get_u64();

  const auto n_binary = r.get_varint();
  if (n_binary > r.remaining() / 9) {
    throw util::DecodeError("shard snapshot: binary count exceeds buffer");
  }
  binary_globals_ = get_gids(r, n_binary);
  std::vector<double> thumbs(binary_globals_.size());
  for (double& t : thumbs) t = r.get_f64();
  const auto n_float = r.get_varint();
  if (n_float > r.remaining()) {
    throw util::DecodeError("shard snapshot: float count exceeds buffer");
  }
  float_globals_ = get_gids(r, n_float);

  // Seed the server straight from the embedded index snapshots (seeding
  // records no stats), then reinstate the accounting the snapshot carried.
  constexpr const char* kMismatch =
      "shard snapshot: id map / index size mismatch";
  std::size_t n_seeded = 0;
  const std::size_t n_binary_entries = idx::visit_index_snapshot(
      r.get_bytes(static_cast<std::size_t>(r.get_varint())),
      [&](feat::BinaryFeatures features, const idx::GeoTag& geo) {
        if (n_seeded == thumbs.size()) throw util::DecodeError(kMismatch);
        server_.seed_binary(std::move(features), geo, thumbs[n_seeded++]);
      });
  const std::size_t n_float_entries = idx::visit_float_index_snapshot(
      r.get_bytes(static_cast<std::size_t>(r.get_varint())),
      [&](feat::FloatFeatures features, const idx::GeoTag& geo) {
        server_.seed_float(std::move(features), geo);
      });
  if (n_binary_entries != binary_globals_.size() ||
      n_float_entries != float_globals_.size()) {
    throw util::DecodeError(kMismatch);
  }
  const auto n_globals = static_cast<std::size_t>(r.get_varint());
  for (std::size_t i = 0; i < n_globals; ++i) {
    const feat::ColorHistogram histogram = idx::get_histogram(r);
    server_.seed_global(histogram, idx::get_geo(r));
  }
  if (!r.done()) throw util::DecodeError("shard snapshot: trailing bytes");
  server_.restore_accounting(stats, keys);
}

}  // namespace bees::serve
