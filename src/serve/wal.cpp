#include "serve/wal.hpp"

#include "index/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/byte_io.hpp"
#include "util/hash.hpp"

namespace bees::serve {

namespace {

// Everything up to the payload section, shared by both encoders.
void put_record_head(util::ByteWriter& w, const WalRecord& record,
                     std::uint8_t op_byte) {
  w.put_u64(record.seq);
  w.put_u8(op_byte);
  w.put_varint(record.global_id);
  w.put_f64(record.info.image_bytes);
  idx::put_geo(w, record.info.geo);
  w.put_f64(record.info.thumbnail_bytes);
}

}  // namespace

std::vector<std::uint8_t> encode_wal_record(const WalRecord& record) {
  util::ByteWriter w;
  put_record_head(w, record, static_cast<std::uint8_t>(record.op));
  w.put_varint(record.payload.size());
  w.put_bytes(record.payload);
  return w.take();
}

std::vector<std::uint8_t> encode_wal_record_chunked(
    const WalRecord& record, const store::Manifest& manifest) {
  util::ByteWriter w;
  put_record_head(w, record,
                  static_cast<std::uint8_t>(record.op) | kWalChunkedFlag);
  store::put_manifest(w, manifest);
  return w.take();
}

WalRecord decode_wal_record(std::span<const std::uint8_t> bytes,
                            store::SegmentStore* chunk_store,
                            std::vector<store::ChunkKey>* keys_out) {
  util::ByteReader r(bytes);
  WalRecord record;
  record.seq = r.get_u64();
  const std::uint8_t op_byte = r.get_u8();
  const bool chunked = (op_byte & kWalChunkedFlag) != 0;
  const std::uint8_t op = op_byte & ~kWalChunkedFlag;
  if (op < static_cast<std::uint8_t>(WalOp::kStoreBinary) ||
      op > static_cast<std::uint8_t>(WalOp::kSeedGlobal)) {
    throw util::DecodeError("wal record: unknown op");
  }
  record.op = static_cast<WalOp>(op);
  record.global_id = static_cast<std::uint32_t>(r.get_varint());
  record.info.image_bytes = r.get_f64();
  record.info.geo = idx::get_geo(r);
  record.info.thumbnail_bytes = r.get_f64();
  if (chunked) {
    const store::Manifest manifest = store::get_manifest(r);
    if (!r.done()) throw util::DecodeError("wal record: trailing bytes");
    if (chunk_store == nullptr) {
      throw util::DecodeError("wal record: chunked record without a store");
    }
    record.payload = chunk_store->get_payload(manifest);
    if (keys_out) {
      keys_out->insert(keys_out->end(), manifest.chunks.begin(),
                       manifest.chunks.end());
    }
  } else {
    const auto payload_len = static_cast<std::size_t>(r.get_varint());
    record.payload = r.get_bytes(payload_len);
    if (!r.done()) throw util::DecodeError("wal record: trailing bytes");
  }
  return record;
}

WalFrame encode_wal_frame(const WalRecord& record,
                          store::SegmentStore* chunk_store) {
  WalFrame frame;
  std::vector<std::uint8_t> body;
  if (chunk_store && !record.payload.empty()) {
    // The chunks must be durable before the frame that references them, or
    // a crash in between leaves a valid frame pointing at nothing (replay
    // would mistake it for a torn tail and silently drop every record
    // after it).  The pins are taken atomically with the put — shards
    // share the store, and another shard's checkpoint-triggered compaction
    // could otherwise reclaim the still-unpinned chunks between put and
    // pin.
    const store::Manifest manifest =
        chunk_store->put_payload_pinned(record.payload);
    chunk_store->flush();
    frame.pins = manifest.chunks;
    body = encode_wal_record_chunked(record, manifest);
  } else {
    body = encode_wal_record(record);
  }
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(body.size()));
  w.put_u32(util::crc32(body));
  w.put_bytes(body);
  frame.bytes = w.take();
  return frame;
}

std::size_t read_wal_frame(std::span<const std::uint8_t> bytes,
                           store::SegmentStore* chunk_store,
                           WalRecord& record,
                           std::vector<store::ChunkKey>* keys_out) {
  if (bytes.size() < 8) return 0;
  util::ByteReader header(bytes.first(8));
  const std::uint32_t len = header.get_u32();
  const std::uint32_t crc = header.get_u32();
  if (len > bytes.size() - 8) return 0;
  const std::span<const std::uint8_t> body = bytes.subspan(8, len);
  if (util::crc32(body) != crc) return 0;
  try {
    record = decode_wal_record(body, chunk_store, keys_out);
  } catch (const util::DecodeError&) {
    return 0;
  }
  return 8 + static_cast<std::size_t>(len);
}

std::vector<std::uint8_t> encode_histogram(const feat::ColorHistogram& h) {
  util::ByteWriter w;
  for (float bin : h.bins) w.put_f32(bin);
  return w.take();
}

feat::ColorHistogram decode_histogram(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader r(bytes);
  feat::ColorHistogram h;
  for (float& bin : h.bins) bin = r.get_f32();
  if (!r.done()) throw util::DecodeError("histogram: trailing bytes");
  return h;
}

WriteAheadLog::WriteAheadLog(std::string path,
                             store::SegmentStore* chunk_store)
    : path_(std::move(path)), chunk_store_(chunk_store) {
  open(/*truncate=*/false);
}

void WriteAheadLog::open(bool truncate) {
  out_.close();
  out_.clear();
  out_.open(path_, truncate ? std::ios::binary | std::ios::trunc
                            : std::ios::binary | std::ios::app);
  // A failed reopen leaves the log closed: later appends then fail instead
  // of landing in a file that may no longer be the one at path_, whose
  // records a restart would not replay.
  if (!out_) {
    throw std::runtime_error("WriteAheadLog: cannot open " + path_);
  }
}

void WriteAheadLog::append(const WalRecord& record) {
  const WalFrame frame = encode_wal_frame(record, chunk_store_);
  pinned_.insert(pinned_.end(), frame.pins.begin(), frame.pins.end());
  out_.write(reinterpret_cast<const char*>(frame.bytes.data()),
             static_cast<std::streamsize>(frame.bytes.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("WriteAheadLog: append failed for " + path_);
  }
}

void WriteAheadLog::reset() {
  open(/*truncate=*/true);
  if (chunk_store_) chunk_store_->unpin(pinned_);
  pinned_.clear();
}

void WriteAheadLog::adopt_pins(std::vector<store::ChunkKey> keys) {
  pinned_.insert(pinned_.end(), keys.begin(), keys.end());
}

WalReplayResult replay_wal(
    const std::string& path, std::uint64_t after_seq,
    const std::function<void(const WalRecord&)>& apply,
    store::SegmentStore* chunk_store) {
  WalReplayResult result;
  std::ifstream in(path, std::ios::binary);
  if (!in) return result;  // No log yet: nothing to replay.
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  // A truncated, CRC-damaged, or undecodable frame means the tail is torn
  // or corrupt: stop at the last intact record.
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    WalRecord record;
    const std::size_t size =
        read_wal_frame(std::span(bytes).subspan(pos), chunk_store, record,
                       &result.chunk_keys);
    if (size == 0) break;
    pos += size;
    if (record.seq <= after_seq) {
      ++result.skipped;
      continue;
    }
    apply(record);
    ++result.applied;
  }
  result.valid_bytes = pos;
  if (pos < bytes.size()) {
    result.dropped = 1;
    result.dropped_bytes = bytes.size() - pos;
    obs::count("serve.wal.dropped_records",
               static_cast<double>(result.dropped));
    obs::count("serve.wal.dropped_bytes",
               static_cast<double>(result.dropped_bytes));
  }
  return result;
}

}  // namespace bees::serve
