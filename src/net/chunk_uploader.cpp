#include "net/chunk_uploader.hpp"

#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace bees::net {

std::optional<Envelope> ChunkUploader::upload_scans(
    std::span<const std::uint8_t> payload,
    std::span<const std::size_t> scan_ends, double modeled_bytes,
    const std::vector<std::uint8_t>& commit_request, const Exchange& exchange,
    ChunkUploadStats* stats) {
  if (!policy_.enabled || payload.empty() || !server_supports_chunks_) {
    return exchange(commit_request, modeled_bytes, /*image_payload=*/true);
  }

  // One manifest per scan segment (or one for the whole payload on the
  // legacy path).  Chunk boundaries restart at each scan, so a scan's
  // chunks are a pure function of its content.
  std::vector<std::span<const std::uint8_t>> slices;
  if (scan_ends.size() < 2) {
    slices.push_back(payload);
  } else {
    std::size_t prev = 0;
    for (const std::size_t end : scan_ends) {
      if (end <= prev || end > payload.size()) {
        throw std::invalid_argument("upload_scans: bad scan boundaries");
      }
      slices.push_back(payload.subspan(prev, end - prev));
      prev = end;
    }
    if (prev != payload.size()) {
      throw std::invalid_argument("upload_scans: boundaries miss the tail");
    }
  }
  std::vector<store::Manifest> manifests;
  manifests.reserve(slices.size());
  for (const auto& slice : slices) {
    manifests.push_back(store::build_manifest(slice, policy_.chunk_size));
  }
  // Chunk bytes are charged in the same modelled domain as the whole image:
  // a chunk of raw size s stands for s * (modeled / raw_total) wire bytes.
  const double scale = modeled_bytes / static_cast<double>(payload.size());

  // Two rounds: the second only runs if the commit reports chunks missing
  // (compaction reclaimed uncommitted chunks between our data and commit),
  // in which case fresh manifest offers tell us what to resend.
  for (int round = 0; round < 2; ++round) {
    const auto fall_back = [&](const Envelope& error_reply)
        -> std::optional<std::optional<Envelope>> {
      if (decode_error(error_reply.payload) == kChunkStoreDisabledMessage) {
        server_supports_chunks_ = false;
        obs::count("net.upload.chunk_fallbacks");
        return exchange(commit_request, modeled_bytes, true);
      }
      return std::nullopt;  // not a fallback case
    };

    std::unordered_set<store::ChunkKey, store::ChunkKeyHasher> sent_this_round;
    for (std::size_t si = 0; si < slices.size(); ++si) {
      const store::Manifest& manifest = manifests[si];
      const auto offer =
          exchange(encode(ChunkManifestRequest{manifest}), -1.0,
                   /*image_payload=*/false);
      if (!offer) return std::nullopt;
      if (offer->type == MessageType::kError) {
        if (auto fb = fall_back(*offer)) return *fb;
        return offer;  // terminal server error
      }
      const ChunkManifestAck ack = decode_chunk_manifest_ack(offer->payload);
      obs::count("net.upload.manifests");

      std::size_t missing_at = 0;
      for (std::size_t i = 0; i < manifest.chunks.size(); ++i) {
        const store::ChunkKey& key = manifest.chunks[i];
        const bool missing =
            missing_at < ack.missing.size() && ack.missing[missing_at] == i;
        if (missing) ++missing_at;
        if (!missing || sent_this_round.count(key)) {
          // The server holds it (or just received it earlier this round).
          if (!delivered_.count(key)) {
            if (stats) ++stats->chunks_deduped;
            obs::count("net.upload.chunks_deduped");
          }
          continue;
        }
        const auto data_reply = exchange(
            encode_chunk_data(key, chunk_bytes(slices[si], manifest, i)),
            static_cast<double>(key.size) * scale,
            /*image_payload=*/true);
        if (!data_reply) return std::nullopt;  // aborted; progress persists
        if (data_reply->type == MessageType::kError) {
          if (auto fb = fall_back(*data_reply)) return *fb;
          return data_reply;
        }
        sent_this_round.insert(key);
        if (stats) ++stats->chunks_sent;
        obs::count("net.upload.chunks_sent");
        if (delivered_.count(key)) {
          if (stats) ++stats->chunks_resent;
          obs::count("net.upload.chunks_resent");
        } else {
          delivered_.insert(key);
        }
      }
    }

    // One commit finalizes the upload: it validates and pins the final
    // scan's chunks and dispatches the legacy envelope.  Earlier scans'
    // chunks stay server-side for dedup/resume exactly like any other
    // delivered-but-unpinned chunk.
    const auto commit = exchange(encode(ChunkCommitRequest{
                                     manifests.back(), commit_request}),
                                 -1.0, /*image_payload=*/false);
    if (!commit) return std::nullopt;
    if (commit->type == MessageType::kError) {
      if (auto fb = fall_back(*commit)) return *fb;
      if (round == 0 &&
          decode_error(commit->payload) == kChunkCommitMissingMessage) {
        obs::count("net.upload.commit_retries");
        continue;  // re-offer the manifests and fill the holes
      }
    }
    return commit;
  }
  return std::nullopt;  // unreachable: round 1 always returns
}

}  // namespace bees::net
