#include "serve/wal.hpp"

#include <stdexcept>
#include <string>

#include "index/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/byte_io.hpp"
#include "util/hash.hpp"

namespace bees::serve {

namespace {

/// Offset of the op byte in a record body (it follows the u64 seq), and
/// the op byte's high bit, which earlier builds set on a chunked body whose
/// payload section was a segment-store manifest.  This build writes no
/// such body and reads none.
constexpr std::size_t kOpOffset = 8;
constexpr std::uint8_t kChunkedBodyFlag = 0x80;

}  // namespace

std::vector<std::uint8_t> encode_wal_record(const WalRecord& record) {
  util::ByteWriter w;
  w.put_u64(record.seq);
  w.put_u8(static_cast<std::uint8_t>(record.op));
  w.put_varint(record.global_id);
  w.put_f64(record.info.image_bytes);
  idx::put_geo(w, record.info.geo);
  w.put_f64(record.info.thumbnail_bytes);
  w.put_varint(record.payload.size());
  w.put_bytes(record.payload);
  return w.take();
}

WalRecord decode_wal_record(std::span<const std::uint8_t> bytes) {
  util::ByteReader r(bytes);
  WalRecord record;
  record.seq = r.get_u64();
  const std::uint8_t op = r.get_u8();
  if (op < static_cast<std::uint8_t>(WalOp::kStoreBinary) ||
      op > static_cast<std::uint8_t>(WalOp::kSeedGlobal)) {
    throw util::DecodeError("wal record: unknown op");
  }
  record.op = static_cast<WalOp>(op);
  record.global_id = static_cast<std::uint32_t>(r.get_varint());
  record.info.image_bytes = r.get_f64();
  record.info.geo = idx::get_geo(r);
  record.info.thumbnail_bytes = r.get_f64();
  const auto payload_len = static_cast<std::size_t>(r.get_varint());
  record.payload = r.get_bytes(payload_len);
  if (!r.done()) throw util::DecodeError("wal record: trailing bytes");
  return record;
}

std::vector<std::uint8_t> encode_wal_frame(const WalRecord& record) {
  const std::vector<std::uint8_t> body = encode_wal_record(record);
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(body.size()));
  w.put_u32(util::crc32(body));
  w.put_bytes(body);
  return w.take();
}

std::size_t read_wal_frame(std::span<const std::uint8_t> bytes,
                           WalRecord& record) {
  if (bytes.size() < 8) return 0;
  util::ByteReader header(bytes.first(8));
  const std::uint32_t len = header.get_u32();
  const std::uint32_t crc = header.get_u32();
  if (len > bytes.size() - 8) return 0;
  const std::span<const std::uint8_t> body = bytes.subspan(8, len);
  if (util::crc32(body) != crc) return 0;
  // The frame was written whole, so an earlier build's chunked body is not
  // a torn tail: dropping it would silently drop every record after it.
  if (body.size() > kOpOffset && (body[kOpOffset] & kChunkedBodyFlag) != 0) {
    throw util::DecodeError(
        "wal frame: chunked record body, written by an earlier build");
  }
  try {
    record = decode_wal_record(body);
  } catch (const util::DecodeError&) {
    return 0;
  }
  return 8 + static_cast<std::size_t>(len);
}

WriteAheadLog::WriteAheadLog(std::string path) : path_(std::move(path)) {
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
  const std::vector<std::uint8_t> frame = encode_wal_frame(record);
  out_.write(reinterpret_cast<const char*>(frame.data()),
             static_cast<std::streamsize>(frame.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error("WriteAheadLog: append failed for " + path_);
  }
}

void WriteAheadLog::reset() { open(/*truncate=*/true); }

WalReplayResult replay_wal(
    const std::string& path, std::uint64_t after_seq,
    const std::function<void(const WalRecord&)>& apply) {
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
    std::size_t size = 0;
    try {
      size = read_wal_frame(std::span(bytes).subspan(pos), record);
    } catch (const util::DecodeError& e) {
      throw std::runtime_error("wal: " + path + " at byte " +
                               std::to_string(pos) + ": " + e.what());
    }
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
