// The one resumable-upload engine every scheme shares.  An image upload
// becomes: offer the payload's chunk manifest, receive the server's
// missing-chunk list, send only those chunks, then commit — the commit
// carries the legacy upload envelope and yields exactly the reply a
// whole-image upload would, so schemes are agnostic to the transfer plane.
//
// Why this beats whole-image resends: the transport's per-message loss is
// the same either way, but (a) an upload aborted mid-image (retry budget
// exhausted, channel outage) keeps its delivered chunks server-side, so the
// resumed attempt asks first and resends only what is missing, and (b)
// byte-identical chunks — the same image re-offered, duplicate content
// across devices — never ride the wire twice (the manifest ack marks them
// present).  net.upload.chunks_{sent,deduped,resent} count the wins.
//
// Fallback contract: a server without a chunk store answers every chunk
// -plane message with kChunkStoreDisabledMessage; the uploader remembers
// and reverts to whole-image commits (byte-identical to the pre-chunking
// protocol).  With chunking disabled the uploader *is* the legacy path:
// one exchange of the commit envelope, nothing added.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "net/protocol.hpp"
#include "store/chunk.hpp"

namespace bees::net {

struct ChunkingPolicy {
  bool enabled = false;
  /// Raw-byte chunking interval for uplink payloads.  Smaller chunks give
  /// finer resume granularity at more per-message overhead; 8 KiB of raw
  /// encoded image maps to ~the paper's modelled 100 KB steps.
  std::uint32_t chunk_size = 8 * 1024;
};

/// Per-upload outcome counters, accumulated by the caller into BatchReport.
struct ChunkUploadStats {
  std::uint64_t chunks_sent = 0;     ///< kChunkData messages delivered.
  std::uint64_t chunks_deduped = 0;  ///< Chunks the server already held.
  std::uint64_t chunks_resent = 0;   ///< Delivered again after an earlier
                                     ///< delivery (server lost them).
};

class ChunkUploader {
 public:
  /// One transport round-trip: request bytes, the modelled wire size to
  /// charge (negative = encoded size), and whether the bytes are image
  /// payload (TxKind::kImage accounting) or control/feature traffic.
  /// Returns the decoded reply envelope, or nullopt when the transport
  /// gave up (the caller aborts the batch and resumes later).
  using Exchange = std::function<std::optional<Envelope>(
      const std::vector<std::uint8_t>& request, double wire_bytes,
      bool image_payload)>;

  explicit ChunkUploader(const ChunkingPolicy& policy) : policy_(policy) {}

  const ChunkingPolicy& policy() const noexcept { return policy_; }

  /// Uploads one payload.  `payload` holds the real encoded bytes
  /// (empty + chunking disabled => pure legacy path), `modeled_bytes` their
  /// modelled wire size, `commit_request` the legacy upload envelope that
  /// finalizes the upload server-side.  Returns the commit reply, or
  /// nullopt when any leg of the transfer gave up; already-delivered
  /// chunks survive server-side, so the next attempt resends less.
  ///
  /// `scan_ends` are the cumulative byte offsets of a progressive payload's
  /// scan boundaries (imaging/progressive.hpp's
  /// ProgressiveStream::scan_ends; the last entry must equal
  /// payload.size()).  Each scan becomes its own chunk-manifest transfer —
  /// chunk boundaries restart at every scan, so an identical scan dedups
  /// across devices and relays even when neighbouring scans differ — and
  /// the final scan's commit carries the legacy envelope.  An empty or
  /// one-entry boundary list uploads the payload as one manifest.  Throws
  /// std::invalid_argument for a non-monotone boundary list.
  std::optional<Envelope> upload_scans(
      std::span<const std::uint8_t> payload,
      std::span<const std::size_t> scan_ends, double modeled_bytes,
      const std::vector<std::uint8_t>& commit_request,
      const Exchange& exchange, ChunkUploadStats* stats = nullptr);

 private:
  ChunkingPolicy policy_;
  /// Keys this uploader has delivered at least once; a later delivery of
  /// the same key is a resend.
  std::unordered_set<store::ChunkKey, store::ChunkKeyHasher> delivered_;
  /// Latched false after a kChunkStoreDisabledMessage reply.
  bool server_supports_chunks_ = true;
};

}  // namespace bees::net
