#include "index/serialize.hpp"

namespace bees::idx {

std::vector<std::uint8_t> serialize_binary(const feat::BinaryFeatures& f) {
  util::ByteWriter w;
  w.put_varint(f.descriptors.size());
  for (const auto& d : f.descriptors) {
    for (const auto lane : d.bits) w.put_u64(lane);
  }
  return w.take();
}

feat::BinaryFeatures deserialize_binary(
    const std::vector<std::uint8_t>& bytes) {
  util::ByteReader r(bytes);
  feat::BinaryFeatures f;
  const auto n = r.get_varint();
  // A corrupt count must fail cleanly before the reserve: every descriptor
  // occupies 32 bytes, so any count beyond remaining/32 is unsatisfiable.
  if (n > r.remaining() / sizeof(feat::Descriptor256::bits)) {
    throw util::DecodeError("deserialize_binary: descriptor count exceeds buffer");
  }
  f.descriptors.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    feat::Descriptor256 d;
    for (auto& lane : d.bits) lane = r.get_u64();
    f.descriptors.push_back(d);
  }
  f.stats.keypoint_count = f.descriptors.size();
  return f;
}

std::vector<std::uint8_t> serialize_float(const feat::FloatFeatures& f) {
  util::ByteWriter w;
  w.put_varint(f.size());
  w.put_varint(static_cast<std::uint64_t>(f.dim));
  for (const float v : f.values) w.put_f32(v);
  return w.take();
}

feat::FloatFeatures deserialize_float(const std::vector<std::uint8_t>& bytes) {
  util::ByteReader r(bytes);
  feat::FloatFeatures f;
  const auto n = r.get_varint();
  const auto dim = r.get_varint();
  // Validate both varints against the buffer before sizing anything: each
  // value is a 4-byte f32, so n * dim beyond remaining/4 is unsatisfiable,
  // and an absurd dim must not drive the multiplication into overflow.
  if (dim > (1u << 16) || (n > 0 && dim == 0)) {
    throw util::DecodeError("deserialize_float: bad descriptor dimension");
  }
  if (dim > 0 && n > r.remaining() / 4 / dim) {
    throw util::DecodeError("deserialize_float: value count exceeds buffer");
  }
  f.dim = static_cast<int>(dim);
  f.values.reserve(n * dim);
  for (std::uint64_t i = 0; i < n * dim; ++i) {
    f.values.push_back(r.get_f32());
  }
  f.stats.keypoint_count = f.size();
  return f;
}

void put_geo(util::ByteWriter& w, const GeoTag& geo) {
  w.put_u8(geo.valid ? 1 : 0);
  w.put_f64(geo.lon);
  w.put_f64(geo.lat);
}

GeoTag get_geo(util::ByteReader& r) {
  GeoTag geo;
  geo.valid = r.get_u8() != 0;
  geo.lon = r.get_f64();
  geo.lat = r.get_f64();
  return geo;
}

void put_histogram(util::ByteWriter& w, const feat::ColorHistogram& h) {
  for (const float bin : h.bins) w.put_f32(bin);
}

feat::ColorHistogram get_histogram(util::ByteReader& r) {
  feat::ColorHistogram h;
  for (float& bin : h.bins) bin = r.get_f32();
  return h;
}

}  // namespace bees::idx
