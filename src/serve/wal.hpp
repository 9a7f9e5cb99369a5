// Per-shard write-ahead log of store/seed operations.  Every index
// mutation is appended (and flushed) before it is applied, so a crash
// between checkpoints loses at most the record being written — and a torn
// tail is detected, not replayed: each record is framed as
//
//   u32 payload length | u32 CRC-32(payload) | payload bytes
//
// with the payload itself carrying a monotonically increasing per-shard
// sequence number and the record's feature bytes inline.  Recovery replays
// records in order, skips those already covered by the latest snapshot
// (seq <= snapshot seq), and stops cleanly at the first truncated,
// CRC-damaged, or garbage frame, counting what it dropped
// (serve.wal.dropped_records).  A frame whose CRC holds but whose op byte
// carries 0x80 — the chunked body an earlier build wrote — was written
// whole: it is refused with an error naming the log, never dropped as a
// torn tail with every record after it.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cloud/server.hpp"
#include "index/feature_index.hpp"

namespace bees::serve {

/// Which mutation a WAL record describes.  Stores count toward server
/// stats; seeds (experiment pre-population) do not — replay must preserve
/// the distinction or recovered accounting drifts.
enum class WalOp : std::uint8_t {
  kStoreBinary = 1,
  kStoreFloat = 2,
  kStoreGlobal = 3,
  kStorePlain = 4,
  kSeedBinary = 5,
  kSeedFloat = 6,
  kSeedGlobal = 7,
};

/// One logged mutation.  `global_id` is the cluster-wide id the frontend
/// assigned (meaningful for binary/float ops; 0 otherwise).  `payload`
/// carries the op's feature bytes: serialize_binary / serialize_float
/// output, or idx::put_histogram's kBins f32s for global ops.
struct WalRecord {
  std::uint64_t seq = 0;
  WalOp op = WalOp::kStorePlain;
  std::uint32_t global_id = 0;
  cloud::StoreInfo info;
  std::vector<std::uint8_t> payload;
};

/// Encodes a record's payload section (everything inside the CRC frame).
std::vector<std::uint8_t> encode_wal_record(const WalRecord& record);
/// Inverse of encode_wal_record; throws util::DecodeError on bad bytes.
WalRecord decode_wal_record(std::span<const std::uint8_t> bytes);

/// The one frame encoder, behind WriteAheadLog::append and replication
/// ship frames: `u32 len | u32 crc | encode_wal_record(record)`.
std::vector<std::uint8_t> encode_wal_frame(const WalRecord& record);

/// The one frame reader: decodes the frame at the front of `bytes` into
/// `record` and returns the bytes it spans.  Returns 0 when the frame is
/// torn: shorter than its header, a length past the end, a CRC mismatch,
/// or a body that does not decode.  Throws util::DecodeError for a
/// CRC-valid frame carrying an earlier build's chunked body.
std::size_t read_wal_frame(std::span<const std::uint8_t> bytes,
                           WalRecord& record);

/// Append-only log file.  Appends are flushed per record so the log is as
/// current as the OS page cache; a production deployment would fsync here.
class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::string path);

  /// Appends one framed record and flushes.  Throws std::runtime_error on
  /// I/O failure.
  void append(const WalRecord& record);

  /// Truncates the log (after a successful snapshot made it redundant).
  void reset();

  const std::string& path() const noexcept { return path_; }

 private:
  void open(bool truncate);

  std::string path_;
  std::ofstream out_;
};

/// Outcome of a replay pass.
struct WalReplayResult {
  std::size_t applied = 0;  ///< Records decoded and handed to the callback.
  std::size_t skipped = 0;  ///< Valid records at or below `after_seq`.
  /// Records lost to a torn/corrupt tail: 1 for the frame that failed to
  /// parse (nothing past it is trusted), 0 for a clean end-of-file.
  std::size_t dropped = 0;
  std::size_t dropped_bytes = 0;  ///< Unparseable tail bytes discarded.
  /// Length of the intact prefix; recovery truncates the file here so new
  /// appends never land after garbage (which would orphan them).
  std::size_t valid_bytes = 0;
};

/// Replays `path` in write order, invoking `apply` for every record with
/// seq > after_seq.  A torn tail never throws — recovery's contract is
/// "restore the longest valid prefix"; a missing file replays zero
/// records.  A CRC-valid frame carrying an earlier build's chunked body
/// throws std::runtime_error naming `path`, before the log is touched.
/// Charges serve.wal.dropped_records / serve.wal.dropped_bytes metrics when
/// observability is enabled.
WalReplayResult replay_wal(const std::string& path, std::uint64_t after_seq,
                           const std::function<void(const WalRecord&)>& apply);

}  // namespace bees::serve
