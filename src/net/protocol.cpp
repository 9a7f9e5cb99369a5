#include "net/protocol.hpp"

#include "index/serialize.hpp"
#include "util/byte_io.hpp"

namespace bees::net {

namespace {

std::vector<std::uint8_t> seal(MessageType type,
                               std::vector<std::uint8_t> payload) {
  util::ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_varint(payload.size());
  w.put_bytes(payload);
  return w.take();
}

void put_binary_features(util::ByteWriter& w,
                         const feat::BinaryFeatures& features) {
  const auto bytes = idx::serialize_binary(features);
  w.put_varint(bytes.size());
  w.put_bytes(bytes);
}

feat::BinaryFeatures get_binary_features(util::ByteReader& r) {
  const auto len = static_cast<std::size_t>(r.get_varint());
  return idx::deserialize_binary(r.get_bytes(len));
}

void put_float_features(util::ByteWriter& w,
                        const feat::FloatFeatures& features) {
  const auto bytes = idx::serialize_float(features);
  w.put_varint(bytes.size());
  w.put_bytes(bytes);
}

feat::FloatFeatures get_float_features(util::ByteReader& r) {
  const auto len = static_cast<std::size_t>(r.get_varint());
  return idx::deserialize_float(r.get_bytes(len));
}

}  // namespace

std::vector<std::uint8_t> encode_binary_query(
    const feat::BinaryFeatures& features, std::int32_t top_k,
    double feature_bytes) {
  util::ByteWriter w;
  put_binary_features(w, features);
  w.put_u32(static_cast<std::uint32_t>(top_k));
  w.put_f64(feature_bytes);
  return seal(MessageType::kBinaryQuery, w.take());
}

std::vector<std::uint8_t> encode(const BinaryQueryRequest& m) {
  return encode_binary_query(m.features, m.top_k, m.feature_bytes);
}

std::vector<std::uint8_t> encode(const QueryResponse& m) {
  util::ByteWriter w;
  w.put_f64(m.max_similarity);
  w.put_u32(m.best_id);
  w.put_f64(m.thumbnail_bytes);
  return seal(MessageType::kQueryResponse, w.take());
}

std::vector<std::uint8_t> encode_image_upload(
    const feat::BinaryFeatures& features, double image_bytes,
    const idx::GeoTag& geo, double thumbnail_bytes) {
  util::ByteWriter w;
  put_binary_features(w, features);
  w.put_f64(image_bytes);
  idx::put_geo(w, geo);
  w.put_f64(thumbnail_bytes);
  return seal(MessageType::kImageUpload, w.take());
}

std::vector<std::uint8_t> encode(const ImageUploadRequest& m) {
  return encode_image_upload(m.features, m.image_bytes, m.geo,
                             m.thumbnail_bytes);
}

std::vector<std::uint8_t> encode(const UploadAck& m) {
  util::ByteWriter w;
  w.put_u32(m.id);
  return seal(MessageType::kUploadAck, w.take());
}

std::vector<std::uint8_t> encode_batch_query(
    const std::vector<const feat::BinaryFeatures*>& features,
    const std::vector<double>& feature_bytes, std::int32_t top_k) {
  util::ByteWriter w;
  w.put_varint(features.size());
  for (const feat::BinaryFeatures* f : features) {
    put_binary_features(w, *f);
  }
  w.put_varint(feature_bytes.size());
  for (const double b : feature_bytes) w.put_f64(b);
  w.put_u32(static_cast<std::uint32_t>(top_k));
  return seal(MessageType::kBatchQuery, w.take());
}

std::vector<std::uint8_t> encode(const BatchQueryRequest& m) {
  std::vector<const feat::BinaryFeatures*> refs;
  refs.reserve(m.features.size());
  for (const auto& f : m.features) refs.push_back(&f);
  return encode_batch_query(refs, m.feature_bytes, m.top_k);
}

std::vector<std::uint8_t> encode(const BatchQueryResponse& m) {
  util::ByteWriter w;
  w.put_varint(m.verdicts.size());
  for (const QueryResponse& v : m.verdicts) {
    w.put_f64(v.max_similarity);
    w.put_u32(v.best_id);
    w.put_f64(v.thumbnail_bytes);
  }
  return seal(MessageType::kBatchQueryResponse, w.take());
}

std::vector<std::uint8_t> encode_float_query(
    const feat::FloatFeatures& features, std::int32_t top_k,
    double feature_bytes) {
  util::ByteWriter w;
  put_float_features(w, features);
  w.put_u32(static_cast<std::uint32_t>(top_k));
  w.put_f64(feature_bytes);
  return seal(MessageType::kFloatQuery, w.take());
}

std::vector<std::uint8_t> encode(const FloatQueryRequest& m) {
  return encode_float_query(m.features, m.top_k, m.feature_bytes);
}

std::vector<std::uint8_t> encode_float_upload(
    const feat::FloatFeatures& features, double image_bytes,
    const idx::GeoTag& geo) {
  util::ByteWriter w;
  put_float_features(w, features);
  w.put_f64(image_bytes);
  idx::put_geo(w, geo);
  return seal(MessageType::kFloatUpload, w.take());
}

std::vector<std::uint8_t> encode(const FloatUploadRequest& m) {
  return encode_float_upload(m.features, m.image_bytes, m.geo);
}

std::vector<std::uint8_t> encode(const GlobalQueryRequest& m) {
  util::ByteWriter w;
  idx::put_histogram(w, m.histogram);
  idx::put_geo(w, m.geo);
  w.put_f64(m.feature_bytes);
  w.put_f64(m.geo_radius_deg);
  return seal(MessageType::kGlobalQuery, w.take());
}

std::vector<std::uint8_t> encode(const GlobalUploadRequest& m) {
  util::ByteWriter w;
  idx::put_histogram(w, m.histogram);
  w.put_f64(m.image_bytes);
  idx::put_geo(w, m.geo);
  return seal(MessageType::kGlobalUpload, w.take());
}

std::vector<std::uint8_t> encode(const PlainUploadRequest& m) {
  util::ByteWriter w;
  w.put_f64(m.image_bytes);
  idx::put_geo(w, m.geo);
  return seal(MessageType::kPlainUpload, w.take());
}

std::vector<std::uint8_t> encode(const ChunkManifestRequest& m) {
  util::ByteWriter w;
  store::put_manifest(w, m.manifest);
  return seal(MessageType::kChunkManifest, w.take());
}

std::vector<std::uint8_t> encode(const ChunkManifestAck& m) {
  util::ByteWriter w;
  w.put_varint(m.missing.size());
  for (const std::uint32_t index : m.missing) w.put_varint(index);
  return seal(MessageType::kChunkManifestAck, w.take());
}

std::vector<std::uint8_t> encode_chunk_data(
    const store::ChunkKey& key, std::span<const std::uint8_t> data) {
  util::ByteWriter w;
  w.put_u64(key.hash);
  w.put_u32(key.crc);
  w.put_varint(key.size);
  w.put_varint(data.size());
  w.put_bytes(data);
  return seal(MessageType::kChunkData, w.take());
}

std::vector<std::uint8_t> encode(const ChunkDataRequest& m) {
  return encode_chunk_data(m.key, m.data);
}

std::vector<std::uint8_t> encode(const ChunkAck& m) {
  util::ByteWriter w;
  w.put_u64(m.hash);
  return seal(MessageType::kChunkAck, w.take());
}

std::vector<std::uint8_t> encode(const ChunkCommitRequest& m) {
  util::ByteWriter w;
  store::put_manifest(w, m.manifest);
  w.put_varint(m.inner.size());
  w.put_bytes(m.inner);
  return seal(MessageType::kChunkCommit, w.take());
}

std::vector<std::uint8_t> encode_error(const std::string& what) {
  util::ByteWriter w;
  w.put_string(what);
  return seal(MessageType::kError, w.take());
}

Envelope open_envelope(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader r(bytes);
  Envelope env;
  const auto type = r.get_u8();
  if (type < static_cast<std::uint8_t>(MessageType::kBinaryQuery) ||
      type > static_cast<std::uint8_t>(MessageType::kChunkCommit)) {
    throw util::DecodeError("protocol: bad type");
  }
  env.type = static_cast<MessageType>(type);
  const auto len = static_cast<std::size_t>(r.get_varint());
  env.payload = r.get_bytes(len);
  if (!r.done()) throw util::DecodeError("protocol: trailing bytes");
  return env;
}

BinaryQueryRequest decode_binary_query(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  BinaryQueryRequest m;
  m.features = get_binary_features(r);
  m.top_k = static_cast<std::int32_t>(r.get_u32());
  m.feature_bytes = r.get_f64();
  return m;
}

QueryResponse decode_query_response(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  QueryResponse m;
  m.max_similarity = r.get_f64();
  m.best_id = r.get_u32();
  m.thumbnail_bytes = r.get_f64();
  return m;
}

ImageUploadRequest decode_image_upload(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  ImageUploadRequest m;
  m.features = get_binary_features(r);
  m.image_bytes = r.get_f64();
  m.geo = idx::get_geo(r);
  m.thumbnail_bytes = r.get_f64();
  return m;
}

UploadAck decode_upload_ack(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  UploadAck m;
  m.id = r.get_u32();
  return m;
}

BatchQueryRequest decode_batch_query(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  BatchQueryRequest m;
  const auto n = r.get_varint();
  // A corrupt count must fail cleanly before the reserve: every entry takes
  // at least a 1-byte feature length and an 8-byte feature_bytes value.
  if (n > r.remaining() / 9) {
    throw util::DecodeError("batch query: count exceeds payload");
  }
  m.features.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.features.push_back(get_binary_features(r));
  }
  const auto nb = static_cast<std::size_t>(r.get_varint());
  if (nb != n) {
    throw util::DecodeError("batch query: feature_bytes count mismatch");
  }
  m.feature_bytes.reserve(nb);
  for (std::size_t i = 0; i < nb; ++i) m.feature_bytes.push_back(r.get_f64());
  m.top_k = static_cast<std::int32_t>(r.get_u32());
  return m;
}

BatchQueryResponse decode_batch_query_response(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  BatchQueryResponse m;
  const auto n = r.get_varint();
  // Every verdict is exactly 20 bytes (f64 + u32 + f64).
  if (n > r.remaining() / 20) {
    throw util::DecodeError("batch query response: count exceeds payload");
  }
  m.verdicts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    QueryResponse v;
    v.max_similarity = r.get_f64();
    v.best_id = r.get_u32();
    v.thumbnail_bytes = r.get_f64();
    m.verdicts.push_back(v);
  }
  return m;
}

FloatQueryRequest decode_float_query(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  FloatQueryRequest m;
  m.features = get_float_features(r);
  m.top_k = static_cast<std::int32_t>(r.get_u32());
  m.feature_bytes = r.get_f64();
  return m;
}

FloatUploadRequest decode_float_upload(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  FloatUploadRequest m;
  m.features = get_float_features(r);
  m.image_bytes = r.get_f64();
  m.geo = idx::get_geo(r);
  return m;
}

GlobalQueryRequest decode_global_query(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  GlobalQueryRequest m;
  m.histogram = idx::get_histogram(r);
  m.geo = idx::get_geo(r);
  m.feature_bytes = r.get_f64();
  m.geo_radius_deg = r.get_f64();
  return m;
}

GlobalUploadRequest decode_global_upload(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  GlobalUploadRequest m;
  m.histogram = idx::get_histogram(r);
  m.image_bytes = r.get_f64();
  m.geo = idx::get_geo(r);
  return m;
}

PlainUploadRequest decode_plain_upload(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  PlainUploadRequest m;
  m.image_bytes = r.get_f64();
  m.geo = idx::get_geo(r);
  return m;
}

ChunkManifestRequest decode_chunk_manifest(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  ChunkManifestRequest m;
  m.manifest = store::get_manifest(r);
  if (!r.done()) throw util::DecodeError("chunk manifest: trailing bytes");
  return m;
}

ChunkManifestAck decode_chunk_manifest_ack(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  ChunkManifestAck m;
  const auto n = static_cast<std::size_t>(r.get_varint());
  if (n > store::kMaxManifestChunks) {
    throw util::DecodeError("chunk ack: missing count exceeds limit");
  }
  if (n > r.remaining()) {  // every index varint is >= 1 byte
    throw util::DecodeError("chunk ack: missing count exceeds buffer");
  }
  m.missing.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    m.missing.push_back(static_cast<std::uint32_t>(r.get_varint()));
  }
  if (!r.done()) throw util::DecodeError("chunk ack: trailing bytes");
  return m;
}

ChunkDataRequest decode_chunk_data(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  ChunkDataRequest m;
  m.key.hash = r.get_u64();
  m.key.crc = r.get_u32();
  m.key.size = static_cast<std::uint32_t>(r.get_varint());
  const auto len = static_cast<std::size_t>(r.get_varint());
  if (len != m.key.size) {
    throw util::DecodeError("chunk data: length disagrees with key");
  }
  m.data = r.get_bytes(len);
  if (!r.done()) throw util::DecodeError("chunk data: trailing bytes");
  return m;
}

ChunkAck decode_chunk_ack(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  ChunkAck m;
  m.hash = r.get_u64();
  if (!r.done()) throw util::DecodeError("chunk ack: trailing bytes");
  return m;
}

ChunkCommitRequest decode_chunk_commit(
    const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  ChunkCommitRequest m;
  m.manifest = store::get_manifest(r);
  const auto len = static_cast<std::size_t>(r.get_varint());
  m.inner = r.get_bytes(len);
  if (!r.done()) throw util::DecodeError("chunk commit: trailing bytes");
  return m;
}

std::string decode_error(const std::vector<std::uint8_t>& payload) {
  util::ByteReader r(payload);
  return r.get_string();
}

}  // namespace bees::net
