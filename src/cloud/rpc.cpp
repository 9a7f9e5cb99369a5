#include "cloud/rpc.hpp"

#include <exception>
#include <string>

#include "obs/metrics.hpp"

namespace bees::cloud {

namespace {

/// Metric-name suffix of a dispatched message type.
const char* type_name(net::MessageType type) {
  switch (type) {
    case net::MessageType::kBinaryQuery: return "binary_query";
    case net::MessageType::kBatchQuery: return "batch_query";
    case net::MessageType::kFloatQuery: return "float_query";
    case net::MessageType::kGlobalQuery: return "global_query";
    case net::MessageType::kImageUpload: return "image_upload";
    case net::MessageType::kFloatUpload: return "float_upload";
    case net::MessageType::kGlobalUpload: return "global_upload";
    case net::MessageType::kPlainUpload: return "plain_upload";
    case net::MessageType::kChunkManifest: return "chunk_manifest";
    case net::MessageType::kChunkData: return "chunk_data";
    case net::MessageType::kChunkCommit: return "chunk_commit";
    default: return "other";
  }
}

}  // namespace

void detail::count_dispatch(net::MessageType type, std::size_t request_bytes) {
  if (!obs::enabled()) return;
  obs::count("cloud.dispatch.requests");
  obs::count("cloud.dispatch.request_bytes",
             static_cast<double>(request_bytes));
  obs::count((std::string("cloud.dispatch.") + type_name(type)).c_str());
}

std::vector<std::uint8_t> detail::current_error_reply() {
  try {
    throw;
  } catch (const std::exception& e) {
    return net::encode_error(e.what());
  } catch (...) {
    return net::encode_error("internal server error");
  }
}

std::vector<std::uint8_t> handle_chunk_message(
    store::SegmentStore* chunk_store, const net::Envelope& env,
    const std::function<std::vector<std::uint8_t>(
        const std::vector<std::uint8_t>&)>& dispatch_inner) {
  try {
    if (chunk_store == nullptr) {
      return net::encode_error(net::kChunkStoreDisabledMessage);
    }
    switch (env.type) {
      case net::MessageType::kChunkManifest: {
        const net::ChunkManifestRequest offer =
            net::decode_chunk_manifest(env.payload);
        net::ChunkManifestAck ack;
        for (std::size_t i = 0; i < offer.manifest.chunks.size(); ++i) {
          if (!chunk_store->contains(offer.manifest.chunks[i])) {
            ack.missing.push_back(static_cast<std::uint32_t>(i));
          }
        }
        return net::encode(ack);
      }
      case net::MessageType::kChunkData: {
        const net::ChunkDataRequest data = net::decode_chunk_data(env.payload);
        // The store recomputes the key from the bytes; a mismatch means the
        // sender's key lied about its content.
        const store::ChunkKey stored = chunk_store->put(data.data);
        if (stored != data.key) {
          return net::encode_error("chunk data: key does not match content");
        }
        return net::encode(net::ChunkAck{stored.hash});
      }
      case net::MessageType::kChunkCommit: {
        const net::ChunkCommitRequest commit =
            net::decode_chunk_commit(env.payload);
        for (const store::ChunkKey& key : commit.manifest.chunks) {
          if (!chunk_store->contains(key)) {
            return net::encode_error(net::kChunkCommitMissingMessage);
          }
        }
        // Committed content is live: pin before dispatching so a compaction
        // between the ack and a later read cannot reclaim it.  A pin can
        // still lose a race against compaction; that too is "missing".
        try {
          chunk_store->pin(commit.manifest.chunks);
        } catch (const util::DecodeError&) {
          return net::encode_error(net::kChunkCommitMissingMessage);
        }
        return dispatch_inner(commit.inner);
      }
      default:
        return net::encode_error("unexpected chunk message type");
    }
  } catch (const util::DecodeError& e) {
    return net::encode_error(e.what());
  }
}

}  // namespace bees::cloud
