// Per-shard write-ahead log of store/seed operations.  Every index
// mutation is appended (and flushed) before it is applied, so a crash
// between checkpoints loses at most the record being written — and a torn
// tail is detected, not replayed: each record is framed as
//
//   u32 payload length | u32 CRC-32(payload) | payload bytes
//
// with the payload itself carrying a monotonically increasing per-shard
// sequence number.  Recovery replays records in order, skips those already
// covered by the latest snapshot (seq <= snapshot seq), and stops cleanly
// at the first truncated, CRC-damaged, or garbage frame, counting what it
// dropped (serve.wal.dropped_records).
//
// With a store::SegmentStore attached, record bodies route through the
// content-addressed chunk store instead of living inline in the frame: the
// op byte carries kWalChunkedFlag and the payload section is replaced by a
// chunk manifest (see DESIGN §12).  Chunks are written and flushed to the
// store *before* the frame that references them — the write-ahead rule
// extends to the store — and the log pins its records' chunks until reset()
// declares them snapshot-covered.  Replay resolves manifests through the
// store; a record whose chunks are missing or corrupt is a torn tail.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cloud/server.hpp"
#include "index/feature_index.hpp"
#include "store/segment_store.hpp"

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

/// High bit of the on-disk op byte: the record's payload section is a
/// store::Manifest (resolved through the attached segment store) rather
/// than inline bytes.  Never set on WalRecord::op in memory.
inline constexpr std::uint8_t kWalChunkedFlag = 0x80;

/// One logged mutation.  `global_id` is the cluster-wide id the frontend
/// assigned (meaningful for binary/float ops; 0 otherwise).  `payload`
/// carries the op's feature bytes: serialize_binary / serialize_float
/// output, or a raw ColorHistogram (kBins f32s) for global ops.
struct WalRecord {
  std::uint64_t seq = 0;
  WalOp op = WalOp::kStorePlain;
  std::uint32_t global_id = 0;
  cloud::StoreInfo info;
  std::vector<std::uint8_t> payload;
};

/// Encodes a record's payload section (everything inside the CRC frame).
std::vector<std::uint8_t> encode_wal_record(const WalRecord& record);
/// Chunked form: the record's payload lives in the segment store under
/// `manifest` (which must describe exactly record.payload); the frame
/// carries the manifest and the op byte gains kWalChunkedFlag.
std::vector<std::uint8_t> encode_wal_record_chunked(
    const WalRecord& record, const store::Manifest& manifest);
/// Inverse of both encoders; throws util::DecodeError on bad bytes.  A
/// chunked record requires `chunk_store` (nullptr -> DecodeError) and
/// resolves its payload through it — a missing or corrupt chunk throws,
/// which replay treats as a torn tail.  When `keys_out` is non-null the
/// record's chunk keys (empty for inline records) are appended to it.
WalRecord decode_wal_record(std::span<const std::uint8_t> bytes,
                            store::SegmentStore* chunk_store = nullptr,
                            std::vector<store::ChunkKey>* keys_out = nullptr);

/// One record framed as the log stores it — `u32 len | u32 crc | body` —
/// plus the chunk keys its body references (empty for an inline body).
struct WalFrame {
  std::vector<std::uint8_t> bytes;
  std::vector<store::ChunkKey> pins;
};

/// The one frame encoder, behind WriteAheadLog::append and replication
/// ship frames.  With a `chunk_store` and a non-empty payload the body is
/// encode_wal_record_chunked: the payload is put into the store, pinned
/// atomically with the put (the caller owns the returned pins), and
/// flushed before the frame exists — write-ahead extends to the store.
/// Otherwise the body is encode_wal_record.
WalFrame encode_wal_frame(const WalRecord& record,
                          store::SegmentStore* chunk_store);

/// The one frame reader: decodes the frame at the front of `bytes` into
/// `record` and returns the bytes it spans.  Returns 0 — and appends no
/// keys — when the frame is torn: shorter than its header, a length past
/// the end, a CRC mismatch, or a body that does not decode (a chunked
/// body whose chunks `chunk_store` cannot resolve included).  The frame's
/// chunk keys are appended to `keys_out` when it is non-null.
std::size_t read_wal_frame(std::span<const std::uint8_t> bytes,
                           store::SegmentStore* chunk_store,
                           WalRecord& record,
                           std::vector<store::ChunkKey>* keys_out = nullptr);

/// WAL payload codec for global-feature ops: kBins little-endian f32s.
std::vector<std::uint8_t> encode_histogram(const feat::ColorHistogram& h);
feat::ColorHistogram decode_histogram(const std::vector<std::uint8_t>& bytes);

/// Append-only log file.  Appends are flushed per record so the log is as
/// current as the OS page cache; a production deployment would fsync here.
class WriteAheadLog {
 public:
  /// With a store, non-empty record payloads are chunked into it (written
  /// and flushed before the referencing frame) and pinned until reset().
  explicit WriteAheadLog(std::string path,
                         store::SegmentStore* chunk_store = nullptr);

  /// Appends one framed record and flushes.  Throws std::runtime_error on
  /// I/O failure.
  void append(const WalRecord& record);

  /// Truncates the log (after a successful snapshot made it redundant) and
  /// unpins every chunk the truncated records referenced.
  void reset();

  /// Takes ownership of chunk pins recovery re-established for records
  /// already in the log, so reset() releases them too.
  void adopt_pins(std::vector<store::ChunkKey> keys);

  const std::string& path() const noexcept { return path_; }

 private:
  void open(bool truncate);

  std::string path_;
  store::SegmentStore* chunk_store_ = nullptr;
  std::vector<store::ChunkKey> pinned_;  ///< Keys pinned by live records.
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
  /// Chunk keys referenced by every intact record (applied *and* skipped —
  /// skipped records stay in the file until the next reset).  The owner
  /// re-pins these after a restart, then hands them to the log via
  /// WriteAheadLog::adopt_pins.
  std::vector<store::ChunkKey> chunk_keys;
};

/// Replays `path` in write order, invoking `apply` for every record with
/// seq > after_seq.  Never throws on a damaged log — recovery's contract is
/// "restore the longest valid prefix"; a missing file replays zero records.
/// Chunked records resolve through `chunk_store`; one that cannot (store
/// absent, chunk missing or corrupt) ends the valid prefix like any torn
/// frame.  Charges serve.wal.dropped_records / serve.wal.dropped_bytes
/// metrics when observability is enabled.
WalReplayResult replay_wal(const std::string& path, std::uint64_t after_seq,
                           const std::function<void(const WalRecord&)>& apply,
                           store::SegmentStore* chunk_store = nullptr);

}  // namespace bees::serve
