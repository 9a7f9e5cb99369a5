// Protocol + dispatcher tests: every simulated exchange must round-trip
// through the encoded wire format, and a server fed garbage must answer
// with an error instead of dying.
#include "cloud/rpc.hpp"

#include <gtest/gtest.h>

#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "net/protocol.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"

namespace bees::cloud {
namespace {

feat::BinaryFeatures features_of(std::uint64_t seed) {
  return feat::extract_orb(
      img::render_scene(img::SceneSpec{seed, 18, 4}, 200, 150));
}

TEST(Protocol, QueryRequestRoundTrips) {
  net::BinaryQueryRequest request;
  request.features = features_of(21);
  request.top_k = 7;
  const auto env = net::open_envelope(net::encode(request));
  EXPECT_EQ(env.type, net::MessageType::kBinaryQuery);
  const net::BinaryQueryRequest back = net::decode_binary_query(env.payload);
  EXPECT_EQ(back.top_k, 7);
  ASSERT_EQ(back.features.size(), request.features.size());
  for (std::size_t i = 0; i < back.features.size(); ++i) {
    EXPECT_EQ(back.features.descriptors[i], request.features.descriptors[i]);
  }
}

TEST(Protocol, QueryResponseRoundTrips) {
  net::QueryResponse reply;
  reply.max_similarity = 0.125;
  reply.best_id = 42;
  reply.thumbnail_bytes = 8192.0;
  const auto env = net::open_envelope(net::encode(reply));
  EXPECT_EQ(env.type, net::MessageType::kQueryResponse);
  const net::QueryResponse back = net::decode_query_response(env.payload);
  EXPECT_DOUBLE_EQ(back.max_similarity, 0.125);
  EXPECT_EQ(back.best_id, 42u);
  EXPECT_DOUBLE_EQ(back.thumbnail_bytes, 8192.0);
}

TEST(Protocol, ImageUploadRoundTrips) {
  net::ImageUploadRequest upload;
  upload.features = features_of(23);
  upload.image_bytes = 123456.0;
  upload.geo = {2.33, 48.86, true};
  upload.thumbnail_bytes = 9999.0;
  const auto env = net::open_envelope(net::encode(upload));
  EXPECT_EQ(env.type, net::MessageType::kImageUpload);
  const net::ImageUploadRequest back = net::decode_image_upload(env.payload);
  EXPECT_DOUBLE_EQ(back.image_bytes, 123456.0);
  EXPECT_EQ(back.geo, upload.geo);
  EXPECT_EQ(back.features.size(), upload.features.size());
}

TEST(Protocol, ChunkPlaneDecodersRejectTrailingBytes) {
  const std::vector<std::uint8_t> payload(100, 0x5A);
  const store::Manifest manifest = store::build_manifest(payload, 64);

  net::ChunkDataRequest data;
  data.key = manifest.chunks[0];
  data.data.assign(payload.begin(), payload.begin() + 64);
  net::ChunkCommitRequest commit;
  commit.manifest = manifest;
  commit.inner = {0x01, 0x02};

  // Every chunk-plane message must reject trailing garbage, like the
  // manifest codec does.
  const auto check = [](std::vector<std::uint8_t> encoded, auto decoder) {
    auto env = net::open_envelope(encoded);
    EXPECT_NO_THROW(decoder(env.payload));
    env.payload.push_back(0xFF);
    EXPECT_THROW(decoder(env.payload), util::DecodeError);
  };
  check(net::encode(net::ChunkManifestRequest{manifest}),
        net::decode_chunk_manifest);
  check(net::encode(net::ChunkManifestAck{{0, 1}}),
        net::decode_chunk_manifest_ack);
  check(net::encode(data), net::decode_chunk_data);
  check(net::encode(net::ChunkAck{data.key.hash}), net::decode_chunk_ack);
  check(net::encode(commit), net::decode_chunk_commit);
}

TEST(Protocol, MalformedEnvelopeThrows) {
  EXPECT_THROW(net::open_envelope({}), util::DecodeError);
  EXPECT_THROW(net::open_envelope({0x00, 0x01}), util::DecodeError);
  EXPECT_THROW(net::open_envelope({0x77, 0x01, 0x00}), util::DecodeError);
  // Trailing junk after a valid envelope is rejected.
  auto valid = net::encode(net::UploadAck{3});
  valid.push_back(0xff);
  EXPECT_THROW(net::open_envelope(valid), util::DecodeError);
}

TEST(Dispatch, FullUploadThenQueryExchange) {
  Server server;
  // Phone A uploads an image through the wire format.
  net::ImageUploadRequest upload;
  upload.features = features_of(31);
  upload.image_bytes = 700.0 * 1024;
  upload.geo = {2.32, 48.87, true};
  upload.thumbnail_bytes = 40.0 * 1024;
  const auto ack_bytes = dispatch(server, net::encode(upload));
  const auto ack_env = net::open_envelope(ack_bytes);
  ASSERT_EQ(ack_env.type, net::MessageType::kUploadAck);
  const net::UploadAck ack = net::decode_upload_ack(ack_env.payload);
  EXPECT_EQ(ack.id, 0u);
  EXPECT_EQ(server.stats().images_stored, 1u);

  // Phone B queries with a view of the same scene.
  util::Rng rng(5);
  net::BinaryQueryRequest query;
  query.features = feat::extract_orb(img::render_view(
      img::SceneSpec{31, 18, 4}, 200, 150, img::ViewPerturbation{}, rng));
  const auto reply_bytes = dispatch(server, net::encode(query));
  const auto reply_env = net::open_envelope(reply_bytes);
  ASSERT_EQ(reply_env.type, net::MessageType::kQueryResponse);
  const net::QueryResponse reply =
      net::decode_query_response(reply_env.payload);
  EXPECT_EQ(reply.best_id, 0u);
  EXPECT_GT(reply.max_similarity, 0.02);
  EXPECT_DOUBLE_EQ(reply.thumbnail_bytes, 40.0 * 1024);
}

TEST(Dispatch, GarbageGetsErrorReplyNotCrash) {
  Server server;
  util::Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> junk(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u64());
    const auto reply = dispatch(server, junk);
    const auto env = net::open_envelope(reply);
    // A garbage request can only yield an error (or, if it accidentally
    // parses, a legitimate reply type).
    EXPECT_TRUE(env.type == net::MessageType::kError ||
                env.type == net::MessageType::kQueryResponse ||
                env.type == net::MessageType::kUploadAck);
  }
  EXPECT_EQ(server.stats().images_stored, 0u);
}

TEST(Dispatch, UnexpectedMessageTypeIsAnError) {
  Server server;
  // A response-type message is not a valid request.
  const auto reply = dispatch(server, net::encode(net::QueryResponse{}));
  const auto env = net::open_envelope(reply);
  EXPECT_EQ(env.type, net::MessageType::kError);
  EXPECT_FALSE(net::decode_error(env.payload).empty());
}

TEST(Dispatch, TruncatedEnvelopeIsAnErrorReply) {
  Server server;
  auto request = net::encode(net::PlainUploadRequest{1000.0, {}});
  // Chop bytes off the tail: every truncation must yield an encoded error
  // reply, never a throw and never a stored image.
  for (std::size_t keep = 0; keep < request.size(); ++keep) {
    const std::vector<std::uint8_t> cut(request.begin(),
                                        request.begin() + keep);
    const auto reply = dispatch(server, cut);
    const auto env = net::open_envelope(reply);
    EXPECT_EQ(env.type, net::MessageType::kError) << "keep=" << keep;
  }
  EXPECT_EQ(server.stats().images_stored, 0u);
}

TEST(Dispatch, UnknownOpcodeIsAnErrorReply) {
  Server server;
  for (const std::uint8_t opcode : {0x00, 0x0d, 0x20, 0x7f, 0xff}) {
    // A syntactically well-formed envelope with an opcode the protocol
    // does not define.
    const std::vector<std::uint8_t> request = {opcode, 0x01, 0x42};
    const auto reply = dispatch(server, request);
    const auto env = net::open_envelope(reply);
    EXPECT_EQ(env.type, net::MessageType::kError)
        << "opcode=" << static_cast<int>(opcode);
    EXPECT_FALSE(net::decode_error(env.payload).empty());
  }
}

TEST(Dispatch, GarbagePayloadUnderValidOpcodeIsAnErrorReply) {
  Server server;
  util::Rng rng(19);
  const net::MessageType request_types[] = {
      net::MessageType::kBinaryQuery,  net::MessageType::kImageUpload,
      net::MessageType::kBatchQuery,   net::MessageType::kFloatQuery,
      net::MessageType::kFloatUpload,  net::MessageType::kGlobalQuery,
      net::MessageType::kGlobalUpload, net::MessageType::kPlainUpload};
  for (const auto type : request_types) {
    for (int trial = 0; trial < 20; ++trial) {
      // Valid envelope, garbage payload of a random small size.
      std::vector<std::uint8_t> payload(
          static_cast<std::size_t>(rng.uniform_int(0, 24)));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
      util::ByteWriter w;
      w.put_u8(static_cast<std::uint8_t>(type));
      w.put_varint(payload.size());
      w.put_bytes(payload);
      const auto reply = dispatch(server, w.take());
      const auto env = net::open_envelope(reply);
      // Garbage almost always fails decoding; the rare accidental parse
      // must still produce a legitimate reply type.
      EXPECT_TRUE(env.type == net::MessageType::kError ||
                  env.type == net::MessageType::kQueryResponse ||
                  env.type == net::MessageType::kBatchQueryResponse ||
                  env.type == net::MessageType::kUploadAck);
    }
  }
}

TEST(Protocol, BatchQueryRoundTrips) {
  net::BatchQueryRequest request;
  request.features.push_back(features_of(41));
  request.features.push_back(features_of(43));
  request.feature_bytes = {1200.0, 1500.0};
  request.top_k = 5;
  const auto env = net::open_envelope(net::encode(request));
  EXPECT_EQ(env.type, net::MessageType::kBatchQuery);
  const net::BatchQueryRequest back = net::decode_batch_query(env.payload);
  ASSERT_EQ(back.features.size(), 2u);
  EXPECT_EQ(back.features[1].size(), request.features[1].size());
  EXPECT_EQ(back.feature_bytes, request.feature_bytes);
  EXPECT_EQ(back.top_k, 5);

  net::BatchQueryResponse reply;
  reply.verdicts.push_back({0.5, 3, 100.0});
  reply.verdicts.push_back({0.0, idx::kInvalidImageId, 0.0});
  const auto renv = net::open_envelope(net::encode(reply));
  EXPECT_EQ(renv.type, net::MessageType::kBatchQueryResponse);
  const auto rback = net::decode_batch_query_response(renv.payload);
  ASSERT_EQ(rback.verdicts.size(), 2u);
  EXPECT_DOUBLE_EQ(rback.verdicts[0].max_similarity, 0.5);
  EXPECT_EQ(rback.verdicts[1].best_id, idx::kInvalidImageId);
}

TEST(Protocol, BatchQueryRejectsCountMismatch) {
  net::BatchQueryRequest request;
  request.features.push_back(features_of(41));
  request.feature_bytes = {100.0, 200.0};  // two sizes for one feature set
  const auto env = net::open_envelope(net::encode(request));
  EXPECT_THROW(net::decode_batch_query(env.payload), util::DecodeError);
}

TEST(Dispatch, OversizedBatchCountIsAnErrorReply) {
  // A kBatchQuery whose whole payload is the entry count 2^62: the decoder
  // must reject the count before reserving anything, and dispatch must
  // answer with an encoded error instead of throwing.
  util::ByteWriter payload;
  payload.put_varint(std::uint64_t{1} << 62);
  util::ByteWriter request;
  request.put_u8(static_cast<std::uint8_t>(net::MessageType::kBatchQuery));
  request.put_varint(payload.size());
  request.put_bytes(payload.bytes());
  Server server;
  const auto env = net::open_envelope(dispatch(server, request.bytes()));
  EXPECT_EQ(env.type, net::MessageType::kError);
  EXPECT_FALSE(net::decode_error(env.payload).empty());
  // The reply decoder bounds the same count.
  EXPECT_THROW(net::decode_batch_query_response(payload.bytes()),
               util::DecodeError);
}

TEST(Dispatch, BatchQueryAnswersPerImage) {
  Server server;
  // Store image 31; then batch-query a matching view plus an unrelated
  // scene, expecting one hit and one miss, in request order.
  net::ImageUploadRequest upload;
  upload.features = features_of(31);
  upload.image_bytes = 700.0 * 1024;
  upload.thumbnail_bytes = 40.0 * 1024;
  dispatch(server, net::encode(upload));

  util::Rng rng(5);
  net::BatchQueryRequest query;
  query.features.push_back(feat::extract_orb(img::render_view(
      img::SceneSpec{31, 18, 4}, 200, 150, img::ViewPerturbation{}, rng)));
  query.features.push_back(features_of(777));
  query.feature_bytes = {1000.0, 1000.0};
  const auto reply_env = net::open_envelope(dispatch(server,
                                                     net::encode(query)));
  ASSERT_EQ(reply_env.type, net::MessageType::kBatchQueryResponse);
  const auto reply = net::decode_batch_query_response(reply_env.payload);
  ASSERT_EQ(reply.verdicts.size(), 2u);
  EXPECT_GT(reply.verdicts[0].max_similarity, 0.02);
  EXPECT_EQ(reply.verdicts[0].best_id, 0u);
  EXPECT_DOUBLE_EQ(reply.verdicts[0].thumbnail_bytes, 40.0 * 1024);
  EXPECT_LT(reply.verdicts[1].max_similarity,
            reply.verdicts[0].max_similarity);
  // The server charges the carried per-image feature sizes.
  EXPECT_DOUBLE_EQ(server.stats().feature_bytes_received, 2000.0);
}

TEST(Dispatch, FloatAndGlobalAndPlainRequestsRoundTrip) {
  Server server;

  net::PlainUploadRequest plain;
  plain.image_bytes = 2048.0;
  auto env = net::open_envelope(dispatch(server, net::encode(plain)));
  EXPECT_EQ(env.type, net::MessageType::kUploadAck);
  EXPECT_EQ(server.stats().images_stored, 1u);

  net::GlobalUploadRequest gup;
  gup.histogram.bins[0] = 1.0f;
  gup.image_bytes = 4096.0;
  env = net::open_envelope(dispatch(server, net::encode(gup)));
  EXPECT_EQ(env.type, net::MessageType::kUploadAck);

  net::GlobalQueryRequest gq;
  gq.histogram.bins[0] = 1.0f;
  gq.feature_bytes = 273.0;
  env = net::open_envelope(dispatch(server, net::encode(gq)));
  ASSERT_EQ(env.type, net::MessageType::kQueryResponse);
  const auto verdict = net::decode_query_response(env.payload);
  EXPECT_GT(verdict.max_similarity, 0.9);  // identical histogram
  EXPECT_DOUBLE_EQ(server.stats().feature_bytes_received, 273.0);
}

}  // namespace
}  // namespace bees::cloud
