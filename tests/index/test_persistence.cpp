#include "index/persistence.hpp"

#include <gtest/gtest.h>

#include "index/serialize.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "features/orb.hpp"
#include "features/sift.hpp"
#include "imaging/synth.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"

namespace bees::idx {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

FeatureIndex make_index(int images) {
  FeatureIndex index;
  util::Rng rng(11);
  img::ViewPerturbation pert;
  for (int i = 0; i < images; ++i) {
    const img::SceneSpec spec{static_cast<std::uint64_t>(9900 + i), 18, 4};
    GeoTag geo{2.31 + 0.001 * i, 48.86, true};
    index.insert(feat::extract_orb(
                     img::render_view(spec, 200, 150, pert, rng)),
                 geo);
  }
  return index;
}

TEST(Persistence, RoundTripPreservesEverything) {
  const FeatureIndex original = make_index(4);
  const std::string path = temp_path("bees_index_snapshot.bin");
  save_index_snapshot(original, path);
  const FeatureIndex loaded = load_index_snapshot(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.image_count(), original.image_count());
  for (std::size_t i = 0; i < original.image_count(); ++i) {
    const auto id = static_cast<ImageId>(i);
    ASSERT_EQ(loaded.features_of(id).size(), original.features_of(id).size());
    for (std::size_t d = 0; d < original.features_of(id).size(); ++d) {
      EXPECT_EQ(loaded.features_of(id).descriptors[d],
                original.features_of(id).descriptors[d]);
    }
    EXPECT_EQ(loaded.geo_of(id), original.geo_of(id));
  }
}

TEST(Persistence, LoadedIndexAnswersQueriesIdentically) {
  const FeatureIndex original = make_index(5);
  const std::string path = temp_path("bees_index_snapshot2.bin");
  save_index_snapshot(original, path);
  const FeatureIndex loaded = load_index_snapshot(path);
  std::remove(path.c_str());

  // Query with fresh views of the indexed scenes.
  util::Rng rng(12);
  img::ViewPerturbation pert;
  for (int i = 0; i < 5; ++i) {
    const img::SceneSpec spec{static_cast<std::uint64_t>(9900 + i), 18, 4};
    const auto query = feat::extract_orb(
        img::render_view(spec, 200, 150, pert, rng));
    const QueryResult a = original.query(query);
    const QueryResult b = loaded.query(query);
    EXPECT_EQ(a.best_id, b.best_id);
    EXPECT_NEAR(a.max_similarity, b.max_similarity, 1e-12);
  }
}

TEST(Persistence, EmptyIndexRoundTrips) {
  const FeatureIndex empty;
  const std::string path = temp_path("bees_index_empty.bin");
  save_index_snapshot(empty, path);
  const FeatureIndex loaded = load_index_snapshot(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.image_count(), 0u);
}

TEST(Persistence, LoadWithDifferentLshParamsStillWorks) {
  const FeatureIndex original = make_index(3);
  const std::string path = temp_path("bees_index_params.bin");
  save_index_snapshot(original, path);
  FeatureIndexParams params;
  params.lsh.tables = 10;
  params.lsh.bits_per_key = 12;
  const FeatureIndex loaded = load_index_snapshot(path, params);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.image_count(), 3u);
  // The derived LSH state was rebuilt under the new configuration; exact
  // queries must still find the right image.
  const QueryResult r = loaded.query_exact(original.features_of(0));
  EXPECT_EQ(r.best_id, 0u);
  EXPECT_DOUBLE_EQ(r.max_similarity, 1.0);
}

FloatFeatureIndex make_float_index(int images) {
  FloatFeatureIndex index;
  util::Rng rng(13);
  img::ViewPerturbation pert;
  for (int i = 0; i < images; ++i) {
    const img::SceneSpec spec{static_cast<std::uint64_t>(7700 + i), 18, 4};
    GeoTag geo{11.57 + 0.001 * i, 48.14, true};
    index.insert(feat::extract_sift(
                     img::render_view(spec, 200, 150, pert, rng)),
                 geo);
  }
  return index;
}

TEST(Persistence, FloatRoundTripPreservesEverything) {
  const FloatFeatureIndex original = make_float_index(4);
  const FloatFeatureIndex loaded =
      decode_float_index_snapshot(encode_float_index_snapshot(original));

  ASSERT_EQ(loaded.image_count(), original.image_count());
  for (std::size_t i = 0; i < original.image_count(); ++i) {
    const auto id = static_cast<ImageId>(i);
    ASSERT_EQ(loaded.features_of(id).size(), original.features_of(id).size());
    ASSERT_EQ(loaded.features_of(id).dim, original.features_of(id).dim);
    EXPECT_EQ(loaded.features_of(id).values, original.features_of(id).values);
    EXPECT_EQ(loaded.geo_of(id), original.geo_of(id));
  }
}

TEST(Persistence, FloatLoadedIndexAnswersQueriesIdentically) {
  const FloatFeatureIndex original = make_float_index(5);
  const FloatFeatureIndex loaded =
      decode_float_index_snapshot(encode_float_index_snapshot(original));

  for (std::size_t i = 0; i < original.image_count(); ++i) {
    const auto id = static_cast<ImageId>(i);
    const QueryResult a = original.query(original.features_of(id));
    const QueryResult b = loaded.query(original.features_of(id));
    EXPECT_EQ(a.best_id, b.best_id);
    EXPECT_DOUBLE_EQ(a.max_similarity, b.max_similarity);
  }
}

TEST(Persistence, FloatEmptyIndexRoundTrips) {
  const FloatFeatureIndex empty;
  const FloatFeatureIndex loaded =
      decode_float_index_snapshot(encode_float_index_snapshot(empty));
  EXPECT_EQ(loaded.image_count(), 0u);
}

FeatureIndexParams ann_params() {
  FeatureIndexParams params;
  params.ann.enabled = true;
  params.ann.vocabulary.branching = 4;
  params.ann.vocabulary.depth = 2;
  params.ann.vocabulary_sample = 256;
  return params;
}

FeatureIndex make_ann_index(int images) {
  FeatureIndex index(ann_params());
  util::Rng rng(11);
  img::ViewPerturbation pert;
  for (int i = 0; i < images; ++i) {
    const img::SceneSpec spec{static_cast<std::uint64_t>(9900 + i), 18, 4};
    GeoTag geo{2.31 + 0.001 * i, 48.86, true};
    index.insert(feat::extract_orb(
                     img::render_view(spec, 200, 150, pert, rng)),
                 geo);
  }
  return index;
}

/// `index`'s images inserted, in id order, into a fresh index built with
/// `params`: what a snapshot of `index` must load as under `params`.
FeatureIndex rebuilt(const FeatureIndex& index,
                     const FeatureIndexParams& params) {
  FeatureIndex out(params);
  for (std::size_t i = 0; i < index.image_count(); ++i) {
    const auto id = static_cast<ImageId>(i);
    out.insert(index.features_of(id), index.geo_of(id));
  }
  return out;
}

/// `loaded` must shortlist and answer exactly like `expected` for fresh
/// views of the scenes make_index/make_ann_index store.
void expect_same_answers(const FeatureIndex& loaded,
                         const FeatureIndex& expected) {
  util::Rng rng(12);
  img::ViewPerturbation pert;
  for (std::size_t i = 0; i < expected.image_count(); ++i) {
    const img::SceneSpec spec{static_cast<std::uint64_t>(9900 + i), 18, 4};
    const auto query =
        feat::extract_orb(img::render_view(spec, 200, 150, pert, rng));
    EXPECT_EQ(loaded.candidates(query), expected.candidates(query));
    const QueryResult a = loaded.query(query);
    const QueryResult b = expected.query(query);
    ASSERT_EQ(a.hits.size(), b.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(a.hits[h].id, b.hits[h].id);
      EXPECT_EQ(a.hits[h].similarity, b.hits[h].similarity);
    }
    EXPECT_EQ(a.candidates_checked, b.candidates_checked);
    EXPECT_EQ(a.ops, b.ops);
  }
}

TEST(Persistence, AnnSnapshotLoadsIntoAnnDisabledIndex) {
  // ANN state is derived: an ANN index writes the same snapshot bytes as a
  // plain one, and they load into a plain-LSH index like a fresh build.
  const FeatureIndex original = make_ann_index(3);
  const auto bytes = encode_index_snapshot(original);
  EXPECT_EQ(bytes, encode_index_snapshot(rebuilt(original, {})));
  const FeatureIndex loaded = decode_index_snapshot(bytes);  // default params
  EXPECT_EQ(loaded.image_count(), 3u);
  expect_same_answers(loaded, rebuilt(original, {}));
  const QueryResult r = loaded.query_exact(original.features_of(0));
  EXPECT_EQ(r.best_id, 0u);
}

TEST(Persistence, AnnSnapshotWithMismatchedParamsRecomputesRows) {
  // Reader trains a differently-shaped tree: the rows are sketched under
  // the reader's params, and the index answers like one built with them.
  const FeatureIndex original = make_ann_index(3);
  const auto bytes = encode_index_snapshot(original);
  expect_same_answers(decode_index_snapshot(bytes, ann_params()), original);
  FeatureIndexParams params = ann_params();
  params.ann.vocabulary.branching = 3;
  const FeatureIndex loaded = decode_index_snapshot(bytes, params);
  expect_same_answers(loaded, rebuilt(original, params));
  const QueryResult r = loaded.query(original.features_of(1));
  EXPECT_EQ(r.best_id, 1u);
}

TEST(Persistence, LegacyV1SnapshotStillLoads) {
  // Hand-build a version-1 snapshot (no flag byte) and check the v2 reader
  // accepts it — the backward-compatibility contract of the version bump.
  const FeatureIndex original = make_index(2);
  util::ByteWriter w;
  w.put_u32(0x53454542);  // "BEES"
  w.put_u32(1);           // legacy version
  w.put_varint(original.image_count());
  for (std::size_t i = 0; i < original.image_count(); ++i) {
    const auto id = static_cast<ImageId>(i);
    const auto features = serialize_binary(original.features_of(id));
    w.put_varint(features.size());
    w.put_bytes(features);
    const GeoTag& geo = original.geo_of(id);
    w.put_u8(geo.valid ? 1 : 0);
    w.put_f64(geo.lon);
    w.put_f64(geo.lat);
  }
  const FeatureIndex loaded = decode_index_snapshot(w.take(), ann_params());
  ASSERT_EQ(loaded.image_count(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const auto id = static_cast<ImageId>(i);
    EXPECT_EQ(loaded.features_of(id).descriptors,
              original.features_of(id).descriptors);
    EXPECT_EQ(loaded.geo_of(id), original.geo_of(id));
  }
  // ANN rows were sketched from the descriptors during the legacy load.
  expect_same_answers(loaded, rebuilt(original, ann_params()));
  const QueryResult r = loaded.query(original.features_of(0));
  EXPECT_EQ(r.best_id, 0u);
}

TEST(Persistence, NonzeroAnnFlagIsRejected) {
  // v2's flag byte once announced persisted ANN rows; no reader parses
  // them, so a stream claiming them is corrupt, not silently misread.
  auto bytes = encode_index_snapshot(make_index(2));
  ASSERT_EQ(bytes.at(8), 0u);  // magic, version, then the flag
  bytes[8] = 1;
  EXPECT_THROW(decode_index_snapshot(bytes), util::DecodeError);
  EXPECT_THROW(decode_index_snapshot(bytes, ann_params()), util::DecodeError);
}

TEST(Persistence, HugeImageCountFailsCleanly) {
  // A corrupted count must raise DecodeError before any allocation sized
  // from it — not attempt a multi-terabyte reserve.
  util::ByteWriter w;
  w.put_u32(0x53454542);
  w.put_u32(2);
  w.put_u8(0);                        // no ANN rows
  w.put_varint(0xffffffffffffull);    // absurd image count
  EXPECT_THROW(decode_index_snapshot(w.take()), util::DecodeError);

  util::ByteWriter fw;
  fw.put_u32(0x46454542);
  fw.put_u32(2);
  fw.put_varint(0xffffffffffffull);
  EXPECT_THROW(decode_float_index_snapshot(fw.take()), util::DecodeError);
}

TEST(Persistence, HugeFeatureLengthFailsCleanly) {
  // Per-entry feature length beyond the remaining buffer must also fail
  // before allocation.
  util::ByteWriter w;
  w.put_u32(0x53454542);
  w.put_u32(2);
  w.put_u8(0);
  w.put_varint(1);              // one image
  w.put_varint(0xffffffffull);  // feature blob "length"...
  for (int i = 0; i < 32; ++i) w.put_u8(0);  // ...but only 32 bytes follow
  EXPECT_THROW(decode_index_snapshot(w.take()), util::DecodeError);
}

TEST(Persistence, MixedMagicIsRejected) {
  // A binary snapshot fed to the float loader (and vice versa) must fail
  // loudly on the magic, not misparse.
  const auto binary_bytes = encode_index_snapshot(make_index(2));
  EXPECT_THROW(decode_float_index_snapshot(binary_bytes), util::DecodeError);
  const auto float_bytes = encode_float_index_snapshot(make_float_index(2));
  EXPECT_THROW(decode_index_snapshot(float_bytes), util::DecodeError);
}

TEST(Persistence, MissingFileThrows) {
  EXPECT_THROW(load_index_snapshot("/nonexistent/snapshot.bin"),
               std::runtime_error);
}

TEST(Persistence, CorruptSnapshotThrows) {
  const std::string path = temp_path("bees_index_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a snapshot";
  }
  EXPECT_THROW(load_index_snapshot(path), util::DecodeError);
  std::remove(path.c_str());
}

TEST(Persistence, TruncatedSnapshotThrows) {
  const FeatureIndex original = make_index(3);
  const std::string path = temp_path("bees_index_trunc.bin");
  save_index_snapshot(original, path);
  // Truncate the file in half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_index_snapshot(path), util::DecodeError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bees::idx
