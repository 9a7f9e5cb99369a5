#include "store/segment_store.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iomanip>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "util/compress.hpp"
#include "util/hash.hpp"

namespace bees::store {

namespace {

namespace fs = std::filesystem;

/// Segment file header: magic "BSEG" (LE) + format version.
constexpr std::uint32_t kSegmentMagic = 0x47455342u;
constexpr std::uint32_t kSegmentVersion = 1;
constexpr std::uint64_t kSegmentHeaderBytes = 8;
/// Per-record header: u64 hash | u32 crc | u32 raw | u32 stored | u8 enc.
constexpr std::uint64_t kRecordHeaderBytes = 21;
/// Sanity cap on a single chunk's raw length during segment scans; guards
/// allocation on corrupt length fields.
constexpr std::uint32_t kMaxChunkRaw = 64u << 20;

void put_le32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back((v >> (8 * i)) & 0xFFu);
}

void put_le64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back((v >> (8 * i)) & 0xFFu);
}

std::uint32_t get_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)) {
  if (options_.chunk_size == 0) options_.chunk_size = 64 * 1024;
  if (options_.segment_target_bytes == 0) options_.segment_target_bytes = 1;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!options_.dir.empty()) {
    fs::create_directories(options_.dir);
    scan_existing_locked();
  }
  open_new_segment_locked();
}

std::string SegmentStore::segment_path(std::uint64_t id) const {
  std::ostringstream name;
  name << "seg-" << std::setfill('0') << std::setw(6) << id << ".bsg";
  return (fs::path(options_.dir) / name.str()).string();
}

void SegmentStore::scan_existing_locked() {
  std::vector<std::uint64_t> ids;
  for (const auto& entry : fs::directory_iterator(options_.dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() == 14 && name.rfind("seg-", 0) == 0 &&
        name.substr(10) == ".bsg") {
      const std::string id_str = name.substr(4, 6);
      // A stray file like "seg-00000a.bsg" is not ours: skip it rather
      // than letting std::stoull throw std::invalid_argument (callers only
      // expect util::DecodeError from this constructor).
      if (std::all_of(id_str.begin(), id_str.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
          })) {
        ids.push_back(std::stoull(id_str));
      }
    }
  }
  std::sort(ids.begin(), ids.end());
  for (const std::uint64_t id : ids) {
    const std::string path = segment_path(id);
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                    std::istreambuf_iterator<char>());
    in.close();
    if (bytes.size() < kSegmentHeaderBytes ||
        get_le32(bytes.data()) != kSegmentMagic) {
      throw util::DecodeError("segment store: bad segment magic in " + path);
    }
    if (get_le32(bytes.data() + 4) != kSegmentVersion) {
      throw util::DecodeError("segment store: unknown segment version in " +
                              path);
    }
    Segment segment;
    segment.id = id;
    segment.sealed = true;
    std::uint64_t pos = kSegmentHeaderBytes;
    // Parse records until the tail runs out; a torn final record is
    // truncated away (mirrors WAL torn-tail recovery).
    while (bytes.size() - pos >= kRecordHeaderBytes) {
      const std::uint8_t* p = bytes.data() + pos;
      ChunkKey key;
      key.hash = get_le64(p);
      key.crc = get_le32(p + 8);
      key.size = get_le32(p + 12);
      const std::uint32_t stored = get_le32(p + 16);
      const std::uint8_t encoding = p[20];
      if (key.size > kMaxChunkRaw || stored > kMaxChunkRaw || encoding > 1 ||
          stored > bytes.size() - pos - kRecordHeaderBytes) {
        break;  // torn or garbage tail
      }
      if (!directory_.count(key)) {
        Entry e;
        e.segment = id;
        e.offset = pos + kRecordHeaderBytes;
        e.stored = stored;
        e.raw = key.size;
        e.encoding = encoding;
        directory_.emplace(key, e);
        segment.dead_bytes += stored;  // everything starts unpinned
      }
      pos += kRecordHeaderBytes + stored;
    }
    if (pos < bytes.size()) {
      fs::resize_file(path, pos);
      obs::count("store.segment.truncated_tails");
      obs::count("store.segment.truncated_bytes",
                 static_cast<double>(bytes.size() - pos));
    }
    segment.bytes = pos;
    segments_.emplace(id, segment);
    next_segment_id_ = std::max(next_segment_id_, id + 1);
  }
}

void SegmentStore::open_new_segment_locked() {
  if (auto it = segments_.find(open_segment_); it != segments_.end()) {
    it->second.sealed = true;
  }
  out_.close();
  Segment segment;
  segment.id = next_segment_id_;
  segment.bytes = kSegmentHeaderBytes;
  std::vector<std::uint8_t> header;
  put_le32(header, kSegmentMagic);
  put_le32(header, kSegmentVersion);
  if (options_.dir.empty()) {
    segment.memory = std::move(header);
  } else {
    out_.open(segment_path(segment.id), std::ios::binary | std::ios::trunc);
    write_out_locked(segment.id, header);
  }
  ++next_segment_id_;
  open_segment_ = segment.id;
  segments_.emplace(segment.id, std::move(segment));
}

void SegmentStore::write_out_locked(std::uint64_t segment_id,
                                    const std::vector<std::uint8_t>& bytes) {
  out_.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
  out_.flush();
  if (out_) return;
  // The segment may now end in a torn record (a reopen truncates it): it
  // takes no more writes, and the next record opens a fresh segment.
  out_.close();
  if (auto it = segments_.find(segment_id); it != segments_.end()) {
    it->second.sealed = true;
  }
  throw std::runtime_error("segment store: cannot write " +
                           segment_path(segment_id));
}

SegmentStore::Entry SegmentStore::write_record_locked(
    const ChunkKey& key, std::span<const std::uint8_t> stored,
    std::uint8_t encoding) {
  const auto open = segments_.find(open_segment_);
  if (open == segments_.end() || open->second.sealed ||
      open->second.bytes >= options_.segment_target_bytes +
                                kSegmentHeaderBytes) {
    open_new_segment_locked();
  }
  Segment& segment = segments_.at(open_segment_);
  std::vector<std::uint8_t> record;
  record.reserve(kRecordHeaderBytes + stored.size());
  put_le64(record, key.hash);
  put_le32(record, key.crc);
  put_le32(record, key.size);
  put_le32(record, static_cast<std::uint32_t>(stored.size()));
  record.push_back(encoding);
  record.insert(record.end(), stored.begin(), stored.end());
  if (options_.dir.empty()) {
    segment.memory.insert(segment.memory.end(), record.begin(), record.end());
  } else {
    write_out_locked(segment.id, record);
  }
  Entry entry;
  entry.segment = segment.id;
  entry.offset = segment.bytes + kRecordHeaderBytes;
  entry.stored = static_cast<std::uint32_t>(stored.size());
  entry.raw = key.size;
  entry.encoding = encoding;
  segment.bytes += record.size();
  return entry;
}

SegmentStore::Prepared SegmentStore::prepare(
    std::span<const std::uint8_t> raw) {
  Prepared prepared;
  prepared.key = ChunkKey{
      .hash = util::content_hash64(raw),
      .crc = util::crc32(raw),
      .size = static_cast<std::uint32_t>(raw.size()),
  };
  std::vector<std::uint8_t> packed = util::lz_compress(raw);
  if (packed.size() < raw.size()) {
    prepared.stored = std::move(packed);
    prepared.encoding = 1;
  } else {
    prepared.stored.assign(raw.begin(), raw.end());
    prepared.encoding = 0;
  }
  return prepared;
}

void SegmentStore::append_locked(const Prepared& prepared) {
  if (directory_.count(prepared.key)) {
    ++dedup_hits_;
    obs::count("store.chunk.dedup_hits");
    return;
  }
  const Entry entry =
      write_record_locked(prepared.key, prepared.stored, prepared.encoding);
  // Dead until an owner pins it.
  segments_.at(entry.segment).dead_bytes += entry.stored;
  directory_.emplace(prepared.key, entry);
  obs::count("store.chunk.writes");
  obs::count("store.chunk.stored_bytes",
             static_cast<double>(prepared.stored.size()));
}

ChunkKey SegmentStore::put(std::span<const std::uint8_t> raw) {
  Prepared prepared = prepare(raw);
  std::lock_guard<std::mutex> lock(mutex_);
  append_locked(prepared);
  return prepared.key;
}

std::size_t SegmentStore::put_manifest_payload(
    const Manifest& manifest, std::span<const std::uint8_t> payload,
    bool pin_chunks) {
  // Find missing chunks under the lock, compress them outside it, then
  // append in manifest order.
  std::vector<std::size_t> missing;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < manifest.chunks.size(); ++i) {
      if (directory_.count(manifest.chunks[i])) {
        ++dedup_hits_;
        obs::count("store.chunk.dedup_hits");
      } else {
        missing.push_back(i);
      }
    }
  }
  std::vector<Prepared> prepared;
  prepared.reserve(missing.size());
  for (const std::size_t i : missing) {
    prepared.push_back(prepare(chunk_bytes(payload, manifest, i)));
  }
  std::size_t written = 0;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t j = 0;  // index into prepared/missing, both in manifest order
  for (std::size_t i = 0; i < manifest.chunks.size(); ++i) {
    if (j < missing.size() && missing[j] == i) {
      const bool fresh = !directory_.count(prepared[j].key);
      append_locked(prepared[j]);
      if (fresh) ++written;
      ++j;
    } else if (!directory_.count(manifest.chunks[i])) {
      // Present at the first check but reclaimed by a concurrent
      // compaction since (it was unpinned).  Re-prepare inline under the
      // lock so the manifest never references an absent chunk on return.
      append_locked(prepare(chunk_bytes(payload, manifest, i)));
      ++written;
    }
  }
  // Pinning inside the same critical section as the presence guarantee:
  // once we return, no compaction can have reclaimed these chunks.  Pins
  // are taken only once every append succeeded, so a put that throws
  // leaves none behind.
  if (pin_chunks) {
    for (const ChunkKey& key : manifest.chunks) pin_locked(key);
  }
  return written;
}

Manifest SegmentStore::put_payload(std::span<const std::uint8_t> payload) {
  return put_payload(payload, options_.chunk_size);
}

Manifest SegmentStore::put_payload(std::span<const std::uint8_t> payload,
                                   std::uint32_t chunk_size) {
  Manifest manifest = build_manifest(payload, chunk_size);
  put_manifest_payload(manifest, payload);
  return manifest;
}

Manifest SegmentStore::put_payload_pinned(
    std::span<const std::uint8_t> payload) {
  Manifest manifest = build_manifest(payload, options_.chunk_size);
  put_manifest_payload(manifest, payload, /*pin_chunks=*/true);
  return manifest;
}

bool SegmentStore::contains(const ChunkKey& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return directory_.count(key) != 0;
}

std::vector<std::uint8_t> SegmentStore::read_stored_locked(
    const Entry& entry) {
  const Segment& segment = segments_.at(entry.segment);
  std::vector<std::uint8_t> stored(entry.stored);
  if (options_.dir.empty()) {
    std::copy_n(segment.memory.begin() +
                    static_cast<std::ptrdiff_t>(entry.offset),
                entry.stored, stored.begin());
    return stored;
  }
  std::ifstream in(segment_path(entry.segment), std::ios::binary);
  in.seekg(static_cast<std::streamoff>(entry.offset));
  in.read(reinterpret_cast<char*>(stored.data()), entry.stored);
  if (in.gcount() != static_cast<std::streamsize>(entry.stored)) {
    throw util::DecodeError("segment store: short read (truncated segment)");
  }
  return stored;
}

std::vector<std::uint8_t> SegmentStore::get(const ChunkKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = cache_index_.find(key); it != cache_index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    ++cache_hits_;
    obs::count("store.cache.hits");
    return it->second->second;
  }
  ++cache_misses_;
  obs::count("store.cache.misses");
  const auto dir_it = directory_.find(key);
  if (dir_it == directory_.end()) {
    throw util::DecodeError("segment store: missing chunk");
  }
  std::vector<std::uint8_t> stored = read_stored_locked(dir_it->second);
  std::vector<std::uint8_t> raw =
      dir_it->second.encoding == 1 ? util::lz_decompress(stored)
                                   : std::move(stored);
  if (raw.size() != key.size || util::crc32(raw) != key.crc ||
      util::content_hash64(raw) != key.hash) {
    throw util::DecodeError("segment store: chunk failed checksum");
  }
  cache_insert_locked(key, raw);
  return raw;
}

std::vector<std::uint8_t> SegmentStore::get_payload(const Manifest& manifest) {
  // total_bytes is only as trustworthy as the chunks behind it: size the
  // payload once every chunk is known to be stored.
  for (const ChunkKey& key : manifest.chunks) {
    if (!contains(key)) throw util::DecodeError("segment store: missing chunk");
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(manifest.total_bytes);
  for (const ChunkKey& key : manifest.chunks) {
    const std::vector<std::uint8_t> raw = get(key);
    payload.insert(payload.end(), raw.begin(), raw.end());
  }
  if (payload.size() != manifest.total_bytes ||
      util::content_hash64(payload) != manifest.content_hash) {
    throw util::DecodeError("segment store: payload failed content hash");
  }
  return payload;
}

void SegmentStore::cache_insert_locked(const ChunkKey& key,
                                       std::vector<std::uint8_t> raw) {
  if (raw.size() > kChunkCacheBytes) return;
  cache_bytes_ += raw.size();
  lru_.emplace_front(key, std::move(raw));
  cache_index_[key] = lru_.begin();
  while (cache_bytes_ > kChunkCacheBytes && !lru_.empty()) {
    cache_bytes_ -= lru_.back().second.size();
    cache_index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

void SegmentStore::pin_locked(const ChunkKey& key) {
  Entry& entry = directory_.at(key);
  if (entry.pins++ == 0) {
    Segment& segment = segments_.at(entry.segment);
    segment.dead_bytes -= entry.stored;
    segment.live_bytes += entry.stored;
  }
}

void SegmentStore::pin(const std::vector<ChunkKey>& keys) {
  // All or nothing: a missing key must not leave the earlier ones pinned.
  std::lock_guard<std::mutex> lock(mutex_);
  for (const ChunkKey& key : keys) {
    if (!directory_.count(key)) {
      throw util::DecodeError("segment store: pin of missing chunk");
    }
  }
  for (const ChunkKey& key : keys) pin_locked(key);
}

void SegmentStore::unpin(const ChunkKey& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = directory_.find(key);
  if (it == directory_.end() || it->second.pins == 0) return;
  if (--it->second.pins == 0) {
    Segment& segment = segments_.at(it->second.segment);
    segment.live_bytes -= it->second.stored;
    segment.dead_bytes += it->second.stored;
  }
}

void SegmentStore::unpin(const std::vector<ChunkKey>& keys) {
  for (const ChunkKey& key : keys) unpin(key);
}

void SegmentStore::rewrite_segment_locked(std::uint64_t segment_id) {
  // Collect the victim's entries; live ones move to the open segment in
  // offset order (deterministic), dead ones are dropped.
  std::vector<std::pair<std::uint64_t, ChunkKey>> live;
  std::vector<ChunkKey> dead;
  for (const auto& [key, entry] : directory_) {
    if (entry.segment != segment_id) continue;
    if (entry.pins > 0) {
      live.emplace_back(entry.offset, key);
    } else {
      dead.push_back(key);
    }
  }
  std::sort(live.begin(), live.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // A failed write throws here, before the victim is touched: chunks
  // already moved live on at their new home, the rest still in the victim.
  for (const auto& [offset, key] : live) {
    Entry& entry = directory_.at(key);
    const std::vector<std::uint8_t> stored = read_stored_locked(entry);
    const Entry moved = write_record_locked(key, stored, entry.encoding);
    segments_.at(segment_id).live_bytes -= entry.stored;
    segments_.at(moved.segment).live_bytes += entry.stored;  // still pinned
    entry.segment = moved.segment;
    entry.offset = moved.offset;
    obs::count("store.compaction.moved_chunks");
    obs::count("store.compaction.moved_bytes",
               static_cast<double>(stored.size()));
  }
  for (const ChunkKey& key : dead) {
    cache_index_.erase(key);  // iterator stays valid in lru_; purge lazily
    directory_.erase(key);
  }
  // Purge any cache entries whose list node belonged to dropped keys.
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (cache_index_.count(it->first)) {
      ++it;
    } else {
      cache_bytes_ -= it->second.size();
      it = lru_.erase(it);
    }
  }
  segments_.erase(segment_id);
  if (!options_.dir.empty()) {
    // Every moved record was flushed by its write: the only other copy
    // can go.
    std::error_code ec;
    fs::remove(segment_path(segment_id), ec);
  }
  ++compactions_;
  obs::count("store.compaction.segments_reclaimed");
}

std::size_t SegmentStore::compact_locked(double dead_ratio,
                                         bool enforce_ceiling) {
  std::size_t reclaimed = 0;
  // Pass 1: every sealed segment whose dead fraction exceeds the ratio.
  std::vector<std::uint64_t> victims;
  for (const auto& [id, segment] : segments_) {
    if (!segment.sealed) continue;
    const std::uint64_t payload = segment.live_bytes + segment.dead_bytes;
    if (payload == 0) {
      victims.push_back(id);  // empty sealed segment: pure overhead
      continue;
    }
    if (static_cast<double>(segment.dead_bytes) /
            static_cast<double>(payload) >
        dead_ratio) {
      victims.push_back(id);
    }
  }
  for (const std::uint64_t id : victims) {
    rewrite_segment_locked(id);
    ++reclaimed;
  }
  // Pass 2: while over the disk ceiling, reclaim the deadest sealed
  // segment (sealing the open one if it is the only holder of dead bytes).
  if (enforce_ceiling && options_.disk_ceiling_bytes > 0) {
    for (;;) {
      std::uint64_t disk = 0;
      for (const auto& [id, segment] : segments_) disk += segment.bytes;
      if (disk <= options_.disk_ceiling_bytes) break;
      std::uint64_t best = 0;
      std::uint64_t best_dead = 0;
      for (const auto& [id, segment] : segments_) {
        if (!segment.sealed) continue;
        if (segment.dead_bytes > best_dead) {
          best_dead = segment.dead_bytes;
          best = id;
        }
      }
      if (best_dead == 0) {
        const auto open = segments_.find(open_segment_);
        if (open == segments_.end() || open->second.dead_bytes == 0) {
          break;  // nothing reclaimable
        }
        open_new_segment_locked();
        continue;
      }
      rewrite_segment_locked(best);
      ++reclaimed;
    }
  }
  return reclaimed;
}

std::size_t SegmentStore::compact(double dead_ratio) {
  std::lock_guard<std::mutex> lock(mutex_);
  return compact_locked(dead_ratio, /*enforce_ceiling=*/false);
}

std::size_t SegmentStore::maybe_compact() {
  std::lock_guard<std::mutex> lock(mutex_);
  return compact_locked(options_.compact_dead_ratio,
                        /*enforce_ceiling=*/true);
}

SegmentStore::Stats SegmentStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.chunks = directory_.size();
  stats.segments = segments_.size();
  for (const auto& [id, segment] : segments_) {
    stats.disk_bytes += segment.bytes;
    stats.live_bytes += segment.live_bytes;
    stats.dead_bytes += segment.dead_bytes;
  }
  for (const auto& [key, entry] : directory_) stats.raw_bytes += entry.raw;
  stats.dedup_hits = dedup_hits_;
  stats.cache_hits = cache_hits_;
  stats.cache_misses = cache_misses_;
  stats.compactions = compactions_;
  return stats;
}

std::uint64_t SegmentStore::disk_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t disk = 0;
  for (const auto& [id, segment] : segments_) disk += segment.bytes;
  return disk;
}

}  // namespace bees::store
