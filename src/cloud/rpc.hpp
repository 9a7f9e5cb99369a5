// Message-level entry point to the server: decode a protocol envelope,
// perform the operation, encode the reply.  Makes the Server drivable from
// raw bytes — what a production deployment would put behind a socket — and
// lets tests prove every simulated exchange round-trips through the wire
// format.  The serving cluster answers the same envelopes through the same
// dispatch, so the two backends cannot drift apart message by message.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "cloud/server.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "util/byte_io.hpp"

namespace bees::cloud {

/// Shared chunk-plane handler behind dispatch.  `env` must be a
/// kChunkManifest / kChunkData / kChunkCommit envelope; `dispatch_inner`
/// executes the commit's embedded legacy upload envelope.  A null
/// `chunk_store` answers with net::kChunkStoreDisabledMessage.  Never
/// throws request errors: malformed input comes back encoded.
std::vector<std::uint8_t> handle_chunk_message(
    store::SegmentStore* chunk_store, const net::Envelope& env,
    const std::function<std::vector<std::uint8_t>(
        const std::vector<std::uint8_t>&)>& dispatch_inner);

namespace detail {
/// Counts one dispatched request of `type` in the `cloud.dispatch.*`
/// metrics; a no-op while observability is off.
void count_dispatch(net::MessageType type, std::size_t request_bytes);
}  // namespace detail

/// Feature bytes a query is accounted for: the modelled size it declares,
/// or its encoded message size when it declares none (negative).
inline double accounted_bytes(double declared, std::size_t request_size) {
  return declared >= 0.0 ? declared : static_cast<double>(request_size);
}

/// The wire verdict of one binary query: best match, its similarity, and
/// the thumbnail feedback the server attaches when there is a match.
template <typename Backend>
net::QueryResponse verdict_of(const Backend& backend,
                              const idx::QueryResult& result) {
  net::QueryResponse reply;
  reply.max_similarity = result.max_similarity;
  reply.best_id = result.best_id;
  if (result.best_id != idx::kInvalidImageId) {
    reply.thumbnail_bytes = backend.thumbnail_bytes_of(result.best_id);
  }
  return reply;
}

/// Handles one request message against `backend` and returns the encoded
/// reply.  `Backend` is a cloud::Server or a serve::Cluster: it needs their
/// query_* / store_* entry points, thumbnail_bytes_of, and segment_store()
/// (the chunk plane's store; null answers chunk messages with
/// net::kChunkStoreDisabledMessage).  Malformed or unexpected messages
/// produce an encoded error reply (never a throw): a server must not die
/// because one phone sent garbage.
template <typename Backend>
std::vector<std::uint8_t> dispatch(Backend& backend,
                                   const std::vector<std::uint8_t>& request) {
  try {
    const net::Envelope env = net::open_envelope(request);
    obs::ScopedSpan span("dispatch", "cloud", obs::kLaneServer);
    detail::count_dispatch(env.type, request.size());
    switch (env.type) {
      case net::MessageType::kBinaryQuery: {
        const net::BinaryQueryRequest q =
            net::decode_binary_query(env.payload);
        const idx::QueryResult result = backend.query_binary(
            q.features, accounted_bytes(q.feature_bytes, request.size()),
            q.top_k);
        return net::encode(verdict_of(backend, result));
      }
      case net::MessageType::kBatchQuery: {
        const net::BatchQueryRequest q = net::decode_batch_query(env.payload);
        net::BatchQueryResponse reply;
        reply.verdicts.reserve(q.features.size());
        for (std::size_t i = 0; i < q.features.size(); ++i) {
          const idx::QueryResult result =
              backend.query_binary(q.features[i], q.feature_bytes[i], q.top_k);
          reply.verdicts.push_back(verdict_of(backend, result));
        }
        return net::encode(reply);
      }
      case net::MessageType::kFloatQuery: {
        const net::FloatQueryRequest q = net::decode_float_query(env.payload);
        const idx::QueryResult result = backend.query_float(
            q.features, accounted_bytes(q.feature_bytes, request.size()),
            q.top_k);
        net::QueryResponse reply;
        reply.max_similarity = result.max_similarity;
        reply.best_id = result.best_id;
        return net::encode(reply);
      }
      case net::MessageType::kGlobalQuery: {
        const net::GlobalQueryRequest q = net::decode_global_query(env.payload);
        net::QueryResponse reply;
        reply.max_similarity = backend.query_global(
            q.histogram, q.geo, q.feature_bytes, q.geo_radius_deg);
        return net::encode(reply);
      }
      case net::MessageType::kImageUpload: {
        const net::ImageUploadRequest u =
            net::decode_image_upload(env.payload);
        net::UploadAck ack;
        ack.id = backend.store_binary(
            u.features, {u.image_bytes, u.geo, u.thumbnail_bytes});
        return net::encode(ack);
      }
      case net::MessageType::kFloatUpload: {
        const net::FloatUploadRequest u =
            net::decode_float_upload(env.payload);
        net::UploadAck ack;
        ack.id = backend.store_float(u.features, {u.image_bytes, u.geo});
        return net::encode(ack);
      }
      case net::MessageType::kGlobalUpload: {
        const net::GlobalUploadRequest u =
            net::decode_global_upload(env.payload);
        backend.store_global(u.histogram, {u.image_bytes, u.geo});
        return net::encode(net::UploadAck{});
      }
      case net::MessageType::kPlainUpload: {
        const net::PlainUploadRequest u =
            net::decode_plain_upload(env.payload);
        backend.store_plain({u.image_bytes, u.geo});
        return net::encode(net::UploadAck{});
      }
      case net::MessageType::kChunkManifest:
      case net::MessageType::kChunkData:
      case net::MessageType::kChunkCommit:
        // A commit's embedded legacy upload re-enters this dispatch.
        return handle_chunk_message(
            backend.segment_store(), env,
            [&backend](const std::vector<std::uint8_t>& inner) {
              return dispatch(backend, inner);
            });
      default:
        return net::encode_error("unexpected message type");
    }
  } catch (const util::DecodeError& e) {
    return net::encode_error(e.what());
  }
}

}  // namespace bees::cloud
