#include "index/persistence.hpp"

#include <fstream>

#include "index/serialize.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"

namespace bees::idx {

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x53454542;       // "BEES"
constexpr std::uint32_t kFloatSnapshotMagic = 0x46454542;  // "BEEF"
/// v1: magic, version, count, entries (feature bytes + geo).
/// v2: adds a flag byte after the version of the binary snapshot.  Writers
/// always set it to 0: a nonzero flag announced per-image ANN rows, which
/// no reader uses (inserting an image re-sketches its row), so such a
/// stream is rejected.  Readers accept v1, and v2 with the flag at 0.
constexpr std::uint32_t kSnapshotVersionLegacy = 1;
constexpr std::uint32_t kSnapshotVersion = 2;
/// Tightest possible snapshot entry: 1-byte feature length varint, a
/// 1-byte empty descriptor set, and the 17-byte geotag.  Image counts
/// beyond remaining/this are unsatisfiable and must fail before any
/// allocation sized from them.
constexpr std::size_t kMinEntryBytes = 19;

void write_file(const std::vector<std::uint8_t>& bytes,
                const std::string& path, const char* who) {
  const auto compressed = util::lz_compress(bytes);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error(std::string(who) + ": cannot open " + path);
  }
  out.write(reinterpret_cast<const char*>(compressed.data()),
            static_cast<std::streamsize>(compressed.size()));
  if (!out) {
    throw std::runtime_error(std::string(who) + ": write failed for " + path);
  }
}

std::vector<std::uint8_t> read_file(const std::string& path, const char* who) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error(std::string(who) + ": cannot open " + path);
  }
  std::vector<std::uint8_t> compressed(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return util::lz_decompress(compressed);
}

}  // namespace

std::vector<std::uint8_t> encode_index_snapshot(const FeatureIndex& index) {
  util::ByteWriter w;
  w.put_u32(kSnapshotMagic);
  w.put_u32(kSnapshotVersion);
  w.put_u8(0);  // no ANN rows
  w.put_varint(index.image_count());
  for (std::size_t i = 0; i < index.image_count(); ++i) {
    const auto id = static_cast<ImageId>(i);
    const auto features = serialize_binary(index.features_of(id));
    w.put_varint(features.size());
    w.put_bytes(features);
    put_geo(w, index.geo_of(id));
  }
  return w.take();
}

std::size_t visit_index_snapshot(
    const std::vector<std::uint8_t>& bytes,
    const std::function<void(feat::BinaryFeatures, const GeoTag&)>& visit) {
  util::ByteReader r(bytes);
  if (r.get_u32() != kSnapshotMagic) {
    throw util::DecodeError("decode_index_snapshot: bad magic");
  }
  const auto version = r.get_u32();
  if (version != kSnapshotVersionLegacy && version != kSnapshotVersion) {
    throw util::DecodeError("decode_index_snapshot: unsupported version");
  }
  if (version == kSnapshotVersion && r.get_u8() != 0) {
    throw util::DecodeError("decode_index_snapshot: unsupported ANN rows");
  }
  const auto count = r.get_varint();
  if (count > r.remaining() / kMinEntryBytes) {
    throw util::DecodeError("decode_index_snapshot: image count exceeds buffer");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto feature_len = static_cast<std::size_t>(r.get_varint());
    const auto feature_bytes = r.get_bytes(feature_len);
    feat::BinaryFeatures features = deserialize_binary(feature_bytes);
    visit(std::move(features), get_geo(r));
  }
  return static_cast<std::size_t>(count);
}

FeatureIndex decode_index_snapshot(const std::vector<std::uint8_t>& bytes,
                                   const FeatureIndexParams& params) {
  FeatureIndex index(params);
  visit_index_snapshot(bytes,
                       [&index](feat::BinaryFeatures features,
                                const GeoTag& geo) {
                         index.insert(std::move(features), geo);
                       });
  return index;
}

std::vector<std::uint8_t> encode_float_index_snapshot(
    const FloatFeatureIndex& index) {
  util::ByteWriter w;
  w.put_u32(kFloatSnapshotMagic);
  w.put_u32(kSnapshotVersion);
  w.put_varint(index.image_count());
  for (std::size_t i = 0; i < index.image_count(); ++i) {
    const auto id = static_cast<ImageId>(i);
    const auto features = serialize_float(index.features_of(id));
    w.put_varint(features.size());
    w.put_bytes(features);
    put_geo(w, index.geo_of(id));
  }
  return w.take();
}

std::size_t visit_float_index_snapshot(
    const std::vector<std::uint8_t>& bytes,
    const std::function<void(feat::FloatFeatures, const GeoTag&)>& visit) {
  util::ByteReader r(bytes);
  if (r.get_u32() != kFloatSnapshotMagic) {
    throw util::DecodeError("decode_float_index_snapshot: bad magic");
  }
  const auto version = r.get_u32();
  if (version != kSnapshotVersionLegacy && version != kSnapshotVersion) {
    throw util::DecodeError("decode_float_index_snapshot: unsupported version");
  }
  const auto count = r.get_varint();
  if (count > r.remaining() / kMinEntryBytes) {
    throw util::DecodeError(
        "decode_float_index_snapshot: image count exceeds buffer");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto feature_len = static_cast<std::size_t>(r.get_varint());
    const auto feature_bytes = r.get_bytes(feature_len);
    feat::FloatFeatures features = deserialize_float(feature_bytes);
    visit(std::move(features), get_geo(r));
  }
  return static_cast<std::size_t>(count);
}

FloatFeatureIndex decode_float_index_snapshot(
    const std::vector<std::uint8_t>& bytes,
    const FloatFeatureIndex::Params& params) {
  FloatFeatureIndex index(params);
  visit_float_index_snapshot(bytes,
                             [&index](feat::FloatFeatures features,
                                      const GeoTag& geo) {
                               index.insert(std::move(features), geo);
                             });
  return index;
}

void save_index_snapshot(const FeatureIndex& index, const std::string& path) {
  write_file(encode_index_snapshot(index), path, "save_index_snapshot");
}

FeatureIndex load_index_snapshot(const std::string& path,
                                 const FeatureIndexParams& params) {
  return decode_index_snapshot(read_file(path, "load_index_snapshot"), params);
}

}  // namespace bees::idx
