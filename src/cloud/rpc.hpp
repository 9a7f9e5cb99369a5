// Message-level entry point to the server: decode a protocol envelope,
// perform the operation, encode the reply.  Makes the Server drivable from
// raw bytes — what a production deployment would put behind a socket — and
// lets tests prove every simulated exchange round-trips through the wire
// format.  The serving cluster answers the same envelopes through the same
// dispatch, so the two backends cannot drift apart message by message.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <utility>
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

/// The encoded error reply for the exception being handled (call it only
/// inside a catch block): a std::exception replies with its what() — a
/// util::DecodeError's names what was malformed — anything else with
/// "internal server error".
std::vector<std::uint8_t> current_error_reply();
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

/// Answers a group of request messages against `backend`, in order, and
/// returns one encoded reply per request.  `Backend` is a cloud::Server or
/// a serve::Cluster: it needs their query_binary_batch, query_* / store_*
/// entry points, thumbnail_bytes_of, and segment_store() (the chunk
/// plane's store; null answers chunk messages with
/// net::kChunkStoreDisabledMessage).
///
/// Binary queries have one path: every run of consecutive kBinaryQuery /
/// kBatchQuery messages is answered by one backend.query_binary_batch call
/// over all the queries it carries.  Any other message first answers the
/// pending run, then is answered alone, so replies[i] is byte-identical to
/// dispatching requests[i] by itself, in order, for any group.
///
/// Never throws: malformed or unexpected messages and internal failures
/// come back as encoded error replies — a server must not die because one
/// phone sent garbage.  A failure is confined to the message (or the
/// query run) it hit; nothing in the group is answered twice.
template <typename Backend>
std::vector<std::vector<std::uint8_t>> dispatch(
    Backend& backend, std::span<const std::vector<std::uint8_t>> requests);

/// Handles one request message: a group of one.
template <typename Backend>
std::vector<std::uint8_t> dispatch(Backend& backend,
                                   const std::vector<std::uint8_t>& request) {
  return std::move(dispatch(backend, std::span(&request, 1)).front());
}

template <typename Backend>
std::vector<std::vector<std::uint8_t>> dispatch(
    Backend& backend, std::span<const std::vector<std::uint8_t>> requests) {
  obs::ScopedSpan span("dispatch", "cloud", obs::kLaneServer);
  std::vector<std::vector<std::uint8_t>> replies(requests.size());

  // The pending query run: each message's reply slot, its queries, and
  // whether it arrived as a kBatchQuery (a kBinaryQuery is a bulk of one).
  struct QueryMessage {
    std::size_t slot = 0;
    bool bulk = false;
    net::BatchQueryRequest queries;
  };
  std::vector<QueryMessage> run;
  const auto answer_run = [&] {
    if (run.empty()) return;
    try {
      std::vector<BinaryBatchItem> items;
      for (const QueryMessage& message : run) {
        const net::BatchQueryRequest& q = message.queries;
        for (std::size_t k = 0; k < q.features.size(); ++k) {
          items.push_back({&q.features[k], q.feature_bytes[k], q.top_k});
        }
      }
      const std::vector<idx::QueryResult> results =
          backend.query_binary_batch(items);
      std::size_t next = 0;
      for (const QueryMessage& message : run) {
        net::BatchQueryResponse reply;
        for (std::size_t k = 0; k < message.queries.features.size(); ++k) {
          reply.verdicts.push_back(verdict_of(backend, results[next++]));
        }
        replies[message.slot] = message.bulk
                                    ? net::encode(reply)
                                    : net::encode(reply.verdicts.front());
      }
    } catch (...) {
      const std::vector<std::uint8_t> error = detail::current_error_reply();
      for (const QueryMessage& message : run) replies[message.slot] = error;
    }
    run.clear();
  };

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::vector<std::uint8_t>& request = requests[i];
    try {
      const net::Envelope env = net::open_envelope(request);
      detail::count_dispatch(env.type, request.size());
      if (env.type == net::MessageType::kBinaryQuery) {
        net::BinaryQueryRequest q = net::decode_binary_query(env.payload);
        QueryMessage& message = run.emplace_back();
        message.slot = i;
        message.queries.features.push_back(std::move(q.features));
        message.queries.feature_bytes.push_back(
            accounted_bytes(q.feature_bytes, request.size()));
        message.queries.top_k = q.top_k;
        continue;
      }
      if (env.type == net::MessageType::kBatchQuery) {
        run.push_back({i, true, net::decode_batch_query(env.payload)});
        continue;
      }
      answer_run();
      switch (env.type) {
        case net::MessageType::kFloatQuery: {
          const net::FloatQueryRequest q =
              net::decode_float_query(env.payload);
          const idx::QueryResult result = backend.query_float(
              q.features, accounted_bytes(q.feature_bytes, request.size()),
              q.top_k);
          net::QueryResponse reply;
          reply.max_similarity = result.max_similarity;
          reply.best_id = result.best_id;
          replies[i] = net::encode(reply);
          break;
        }
        case net::MessageType::kGlobalQuery: {
          const net::GlobalQueryRequest q =
              net::decode_global_query(env.payload);
          net::QueryResponse reply;
          reply.max_similarity = backend.query_global(
              q.histogram, q.geo, q.feature_bytes, q.geo_radius_deg);
          replies[i] = net::encode(reply);
          break;
        }
        case net::MessageType::kImageUpload: {
          const net::ImageUploadRequest u =
              net::decode_image_upload(env.payload);
          net::UploadAck ack;
          ack.id = backend.store_binary(
              u.features, {u.image_bytes, u.geo, u.thumbnail_bytes});
          replies[i] = net::encode(ack);
          break;
        }
        case net::MessageType::kFloatUpload: {
          const net::FloatUploadRequest u =
              net::decode_float_upload(env.payload);
          net::UploadAck ack;
          ack.id = backend.store_float(u.features, {u.image_bytes, u.geo});
          replies[i] = net::encode(ack);
          break;
        }
        case net::MessageType::kGlobalUpload: {
          const net::GlobalUploadRequest u =
              net::decode_global_upload(env.payload);
          backend.store_global(u.histogram, {u.image_bytes, u.geo});
          replies[i] = net::encode(net::UploadAck{});
          break;
        }
        case net::MessageType::kPlainUpload: {
          const net::PlainUploadRequest u =
              net::decode_plain_upload(env.payload);
          backend.store_plain({u.image_bytes, u.geo});
          replies[i] = net::encode(net::UploadAck{});
          break;
        }
        case net::MessageType::kChunkManifest:
        case net::MessageType::kChunkData:
        case net::MessageType::kChunkCommit:
          // A commit's embedded legacy upload re-enters this dispatch.
          replies[i] = handle_chunk_message(
              backend.segment_store(), env,
              [&backend](const std::vector<std::uint8_t>& inner) {
                return dispatch(backend, inner);
              });
          break;
        default:
          replies[i] = net::encode_error("unexpected message type");
          break;
      }
    } catch (...) {
      replies[i] = detail::current_error_reply();
    }
  }
  answer_run();
  return replies;
}

}  // namespace bees::cloud
