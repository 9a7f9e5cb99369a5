#include "imaging/progressive.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "imaging/codec.hpp"
#include "imaging/quality.hpp"
#include "imaging/synth.hpp"
#include "util/byte_io.hpp"
#include "util/hash.hpp"

namespace bees::img {
namespace {

// ---------------------------------------------------------------------------
// Golden bitstreams: the v2 format is frozen.  Any change to the header
// layout, scan script, Huffman table serialization, or entropy coding shows
// up here first — bump the magic instead of editing these constants.
// ---------------------------------------------------------------------------

TEST(ProgressiveGolden, FlatGrayStreamIsFrozenByteForByte) {
  Image flat(16, 16, 1);
  flat.fill(128);
  const ProgressiveStream s = encode_progressive(flat, 50, 3);
  const std::vector<std::uint8_t> golden = {
      0x42, 0x50, 0x4a, 0x32, 0x10, 0x00, 0x00, 0x00, 0x10, 0x00, 0x00,
      0x00, 0x01, 0x32, 0x03, 0x00, 0x23, 0x00, 0x00, 0x00, 0x23, 0x00,
      0x00, 0x00, 0x23, 0x00, 0x00, 0x00, 0xe5, 0xbe, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0xe5, 0xbe, 0x01,
      0x02, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0xe5,
      0xbe, 0x02, 0x02, 0x06, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
      0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00};
  EXPECT_EQ(s.bytes, golden);
  EXPECT_EQ(s.scan_ends, (std::vector<std::size_t>{63, 98, 133}));
}

TEST(ProgressiveGolden, TexturedStreamChecksumIsFrozen) {
  const Image src = value_noise(48, 32, 3, 99);
  const ProgressiveStream s = encode_progressive(src, 60, 4);
  EXPECT_EQ(s.bytes.size(), 335u);
  EXPECT_EQ(util::crc32(s.bytes), 0x6ce28832u);
  EXPECT_EQ(s.scan_ends, (std::vector<std::size_t>{88, 199, 219, 335}));
  ASSERT_EQ(s.mse_after_scan.size(), 4u);
  EXPECT_NEAR(s.mse_after_scan[0], 390.267555, 1e-3);
  EXPECT_NEAR(s.mse_after_scan[1], 35.195192, 1e-3);
  EXPECT_NEAR(s.mse_after_scan[2], 33.472862, 1e-3);
  EXPECT_NEAR(s.mse_after_scan[3], 12.298238, 1e-3);
}

// ---------------------------------------------------------------------------
// Prefix-decode contract: every scan boundary is a valid decode point, PSNR
// never regresses as scans land, and the full prefix equals the strict
// decode bit for bit.
// ---------------------------------------------------------------------------

class ProgressiveScanSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProgressiveScanSweep, EveryBoundaryPrefixDecodesWithMonotonePsnr) {
  const int scans = GetParam();
  const Image src = render_scene(SceneSpec{77}, 80, 64);
  const ProgressiveStream s = encode_progressive(src, 70, scans);
  ASSERT_EQ(static_cast<int>(s.scan_ends.size()), scans);
  ASSERT_EQ(s.scan_ends.back(), s.bytes.size());

  double prev_psnr = 0.0;
  double prev_estimate = 0.0;
  for (int k = 0; k < scans; ++k) {
    std::vector<std::uint8_t> prefix(s.bytes.begin(),
                                     s.bytes.begin() + s.scan_ends[k]);
    const PrefixDecode d = decode_prefix(prefix);
    EXPECT_EQ(d.scans_decoded, k + 1);
    EXPECT_EQ(d.scans_total, scans);
    ASSERT_TRUE(d.image.same_shape(src));
    const double p = psnr(src, d.image);
    // Later scans only ever add spectral detail or DC precision.
    EXPECT_GE(p, prev_psnr - 1e-9) << "scan " << k;
    EXPECT_GE(d.psnr_estimate, prev_estimate - 1e-9) << "scan " << k;
    prev_psnr = p;
    prev_estimate = d.psnr_estimate;
  }

  // The trail tracks the coefficient-domain residual: for color content it
  // excludes the chroma-subsampling loss, so the estimate may overshoot
  // the pixel PSNR by a few dB but must stay in its neighbourhood (the
  // gray-plane case below pins it much tighter).
  EXPECT_NEAR(prev_estimate, prev_psnr, 8.0);

  // Full prefix == strict decode, bit for bit.
  const PrefixDecode full = decode_prefix(s.bytes);
  EXPECT_EQ(full.image, decode_progressive(s.bytes));
  // And the v2 stream flows through the shared decode entry point.
  EXPECT_EQ(full.image, decode_jpeg_like(s.bytes));
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProgressiveScanSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Progressive, GrayPsnrEstimateIsTight) {
  // No chroma planes, no subsampling: the embedded residual is the pixel
  // -domain MSE (DCT orthonormality), so the estimate is honest to within
  // clamping/rounding error.
  const Image src = value_noise(64, 48, 4, 17);
  const ProgressiveStream s = encode_progressive(src, 70, 4);
  const PrefixDecode d = decode_prefix(s.bytes);
  EXPECT_NEAR(d.psnr_estimate, psnr(src, d.image), 2.5);
}

TEST(Progressive, MseTrailIsMonotoneNonIncreasing) {
  const Image src = value_noise(64, 48, 4, 13);
  const ProgressiveStream s = encode_progressive(src, 55, kMaxScans);
  for (std::size_t k = 1; k < s.mse_after_scan.size(); ++k) {
    EXPECT_LE(s.mse_after_scan[k], s.mse_after_scan[k - 1] + 1e-9);
  }
}

TEST(Progressive, ScanCountIsClampedToSupportedRange) {
  const Image src = value_noise(24, 24, 3, 7);
  EXPECT_EQ(encode_progressive(src, 60, 0).scan_ends.size(), 1u);
  EXPECT_EQ(encode_progressive(src, 60, 99).scan_ends.size(),
            static_cast<std::size_t>(kMaxScans));
}

TEST(Progressive, RgbFinalScanMatchesColorContent) {
  Image src(32, 32, 3);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      src.set(x, y, 200, 0);
      src.set(x, y, 40, 1);
      src.set(x, y, 60, 2);
    }
  }
  const Image back = decode_progressive(encode_progressive(src, 90, 4).bytes);
  EXPECT_NEAR(back.at(16, 16, 0), 200, 12);
  EXPECT_NEAR(back.at(16, 16, 1), 40, 12);
  EXPECT_NEAR(back.at(16, 16, 2), 60, 12);
}

TEST(Progressive, NonMultipleOfEightDimensions) {
  const Image src = value_noise(37, 23, 3, 55);
  const Image back = decode_progressive(encode_progressive(src, 80, 5).bytes);
  EXPECT_EQ(back.width(), 37);
  EXPECT_EQ(back.height(), 23);
  EXPECT_GT(psnr(src, back), 25.0);
}

// ---------------------------------------------------------------------------
// Robustness: any truncation is either a valid shorter prefix or a clean
// DecodeError — never UB, never a garbage image (run under the sanitize
// label to make "never UB" an enforced claim).
// ---------------------------------------------------------------------------

TEST(ProgressiveRobustness, EveryTruncationIsValidPrefixOrCleanError) {
  const Image src = value_noise(32, 24, 3, 31);
  const ProgressiveStream s = encode_progressive(src, 65, 4);
  for (std::size_t len = 0; len <= s.bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(s.bytes.begin(), s.bytes.begin() + len);
    int boundary_scans = 0;
    for (const std::size_t end : s.scan_ends) {
      if (len >= end) ++boundary_scans;
    }
    if (boundary_scans == 0) {
      EXPECT_THROW(decode_prefix(cut), util::DecodeError) << "len " << len;
    } else {
      const PrefixDecode d = decode_prefix(cut);
      EXPECT_EQ(d.scans_decoded, boundary_scans) << "len " << len;
      EXPECT_TRUE(d.image.same_shape(src));
    }
    // Strict decode accepts exactly the complete stream.
    if (len < s.bytes.size()) {
      EXPECT_THROW(decode_progressive(cut), util::DecodeError) << len;
    } else {
      EXPECT_NO_THROW(decode_progressive(cut));
    }
  }
}

TEST(ProgressiveRobustness, CorruptMagicIsCleanError) {
  const Image src = value_noise(24, 24, 1, 3);
  auto bytes = encode_progressive(src, 60, 3).bytes;
  bytes[3] ^= 0xff;
  EXPECT_THROW(decode_prefix(bytes), util::DecodeError);
  EXPECT_THROW(decode_progressive(bytes), util::DecodeError);
}

TEST(ProgressiveRobustness, CorruptScanMarkerIsCleanError) {
  const Image src = value_noise(24, 24, 1, 3);
  const ProgressiveStream s = encode_progressive(src, 60, 3);
  auto bytes = s.bytes;
  // First byte of the second scan's frame marker.
  bytes[s.scan_ends[0]] ^= 0xff;
  EXPECT_THROW(decode_progressive(bytes), util::DecodeError);
}

TEST(ProgressiveRobustness, CorruptDirectoryIsCleanError) {
  const Image src = value_noise(24, 24, 1, 3);
  auto bytes = encode_progressive(src, 60, 3).bytes;
  // First scan's directory length entry (byte 16): a wrong boundary must
  // land the frame parser off a marker, not in UB.
  bytes[16] = 0xff;
  EXPECT_THROW(decode_progressive(bytes), util::DecodeError);
  EXPECT_THROW(decode_prefix(bytes), util::DecodeError);
}

TEST(ProgressiveRobustness, AbsurdScanCountIsCleanError) {
  const Image src = value_noise(24, 24, 1, 3);
  auto bytes = encode_progressive(src, 60, 3).bytes;
  bytes[14] = 0x7f;  // scan_count field
  EXPECT_THROW(decode_prefix(bytes), util::DecodeError);
}

TEST(ProgressiveRobustness, OversizedDimensionsAreCleanErrorBeforeAllocating) {
  // A one-scan 8x8 stream of a few dozen bytes, its header rewritten to
  // declare dimensions whose coefficient planes would take gigabytes.
  for (const auto& [channels, w, h] :
       {std::tuple{1, 65536u, 65536u}, std::tuple{3, 30000u, 30000u}}) {
    auto bytes =
        encode_progressive(value_noise(8, 8, channels, 5), 50, 1).bytes;
    for (std::size_t i = 0; i < 4; ++i) {
      bytes[4 + i] = static_cast<std::uint8_t>(w >> (8 * i));
      bytes[8 + i] = static_cast<std::uint8_t>(h >> (8 * i));
    }
    EXPECT_THROW(decode_prefix(bytes), util::DecodeError) << bytes.size();
    EXPECT_THROW(decode_progressive(bytes), util::DecodeError);
  }
}

// ---------------------------------------------------------------------------
// Coexistence with the legacy Exp-Golomb format.
// ---------------------------------------------------------------------------

TEST(Progressive, LegacyStreamsAreNotProgressive) {
  const Image src = value_noise(32, 32, 3, 61);
  const auto v1 = encode_jpeg_like(src, 70);
  EXPECT_FALSE(is_progressive(v1));
  EXPECT_TRUE(is_progressive(encode_progressive(src, 70, 2).bytes));
  // decode_prefix is v2-only; feeding it a v1 stream is a clean error.
  EXPECT_THROW(decode_prefix(v1), util::DecodeError);
  // The shared entry point still decodes both formats.
  EXPECT_NO_THROW(decode_jpeg_like(v1));
}

}  // namespace
}  // namespace bees::img
