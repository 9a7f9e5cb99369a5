#include "imaging/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "imaging/quality.hpp"
#include "imaging/synth.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"

namespace bees::img {
namespace {

TEST(Dct, RoundTripIsNearExact) {
  util::Rng rng(5);
  float block[64], coeff[64], back[64];
  for (auto& v : block) {
    v = static_cast<float>(rng.uniform(-128.0, 127.0));
  }
  forward_dct_8x8(block, coeff);
  inverse_dct_8x8(coeff, back);
  for (int i = 0; i < 64; ++i) EXPECT_NEAR(back[i], block[i], 1e-3);
}

TEST(Dct, ConstantBlockHasOnlyDc) {
  float block[64], coeff[64];
  for (auto& v : block) v = 64.0f;
  forward_dct_8x8(block, coeff);
  EXPECT_NEAR(coeff[0], 64.0f * 8.0f, 1e-2);  // DC = 8 * value (orthonormal)
  for (int i = 1; i < 64; ++i) EXPECT_NEAR(coeff[i], 0.0f, 1e-3);
}

TEST(Dct, ParsevalEnergyPreserved) {
  util::Rng rng(6);
  float block[64], coeff[64];
  for (auto& v : block) v = static_cast<float>(rng.uniform(-100.0, 100.0));
  forward_dct_8x8(block, coeff);
  double e_in = 0, e_out = 0;
  for (int i = 0; i < 64; ++i) {
    e_in += block[i] * block[i];
    e_out += coeff[i] * coeff[i];
  }
  EXPECT_NEAR(e_in, e_out, e_in * 1e-4);
}

class CodecQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(CodecQualitySweep, GrayRoundTripQualityScalesWithQ) {
  const Image src = value_noise(64, 48, 4, 21);
  const auto bytes = encode_jpeg_like(src, GetParam());
  const Image back = decode_jpeg_like(bytes);
  ASSERT_TRUE(back.same_shape(src));
  const double p = psnr(src, back);
  // Even at quality 10 the codec should beat 20 dB on smooth noise; at
  // high quality it should be much better.
  EXPECT_GT(p, GetParam() >= 80 ? 35.0 : 20.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, CodecQualitySweep,
                         ::testing::Values(10, 30, 50, 70, 90, 100));

TEST(Codec, SizeGrowsWithQuality) {
  const Image src = render_scene(SceneSpec{41}, 96, 96);
  std::size_t prev = 0;
  for (const int q : {5, 25, 50, 75, 95}) {
    const std::size_t size = encode_jpeg_like(src, q).size();
    EXPECT_GT(size, prev);
    prev = size;
  }
}

TEST(Codec, SsimImprovesWithQuality) {
  const Image src = render_scene(SceneSpec{43}, 96, 96);
  const Image low = decode_jpeg_like(encode_jpeg_like(src, 10));
  const Image high = decode_jpeg_like(encode_jpeg_like(src, 90));
  EXPECT_GT(ssim(src, high), ssim(src, low));
  EXPECT_GT(ssim(src, high), 0.9);
}

TEST(Codec, RgbRoundTripKeepsColor) {
  Image src(32, 32, 3);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      src.set(x, y, 200, 0);
      src.set(x, y, 40, 1);
      src.set(x, y, 60, 2);
    }
  }
  const Image back = decode_jpeg_like(encode_jpeg_like(src, 90));
  EXPECT_NEAR(back.at(16, 16, 0), 200, 12);
  EXPECT_NEAR(back.at(16, 16, 1), 40, 12);
  EXPECT_NEAR(back.at(16, 16, 2), 60, 12);
}

TEST(Codec, NonMultipleOfEightDimensions) {
  const Image src = value_noise(37, 23, 3, 55);
  const Image back = decode_jpeg_like(encode_jpeg_like(src, 80));
  EXPECT_EQ(back.width(), 37);
  EXPECT_EQ(back.height(), 23);
  EXPECT_GT(psnr(src, back), 25.0);
}

TEST(Codec, CompressesRealContent) {
  const Image src = render_scene(SceneSpec{47}, 128, 96);
  const auto bytes = encode_jpeg_like(src, 60);
  EXPECT_LT(bytes.size(), src.byte_size() / 3);  // real compression
}

TEST(Codec, BadMagicThrows) {
  std::vector<std::uint8_t> junk(64, 0x5a);
  EXPECT_THROW(decode_jpeg_like(junk), util::DecodeError);
}

TEST(Codec, TruncatedStreamThrows) {
  const Image src = value_noise(32, 32, 3, 61);
  auto bytes = encode_jpeg_like(src, 70);
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(decode_jpeg_like(bytes), util::DecodeError);
}

/// A BPJG header declaring a w x h gray image, then `payload` zero bytes.
std::vector<std::uint8_t> bpjg_stream(std::uint32_t w, std::uint32_t h,
                                      std::size_t payload) {
  util::ByteWriter bw;
  bw.put_u32(0x474a5042);  // "BPJG"
  bw.put_u32(w);
  bw.put_u32(h);
  bw.put_u8(1);
  bw.put_u8(50);
  std::vector<std::uint8_t> out = bw.take();
  out.resize(out.size() + payload, 0);
  return out;
}

TEST(Codec, OversizedDimensionsAreCleanErrorBeforeAllocating) {
  // A 22-byte stream must not make the decoder size planes from its
  // header: 12000 x 12000 would zero 552 MB first, 2^20 x 2^20 is beyond
  // any allocation, and 0x7fffffff x 8 pads past INT_MAX.
  EXPECT_THROW(decode_jpeg_like(bpjg_stream(12000, 12000, 8)),
               util::DecodeError);
  EXPECT_THROW(decode_jpeg_like(bpjg_stream(1u << 20, 1u << 20, 8)),
               util::DecodeError);
  EXPECT_THROW(decode_jpeg_like(bpjg_stream(0x7fffffff, 8, 8)),
               util::DecodeError);
}

TEST(QualityFromProportion, MapsPaperKnob) {
  EXPECT_EQ(quality_from_proportion(0.0), 100);
  EXPECT_EQ(quality_from_proportion(0.85), 15);
  EXPECT_EQ(quality_from_proportion(0.99), 1);
  EXPECT_EQ(quality_from_proportion(-1.0), 100);  // clamped
}

}  // namespace
}  // namespace bees::img
