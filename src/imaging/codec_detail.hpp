// Shared internals of the image codecs: quantization tables, zigzag order,
// plane layout with replicate padding, and the YCbCr 4:2:0 colorspace
// round-trip.  Both the legacy single-shot codec (codec.cpp, Exp-Golomb)
// and the progressive codec (progressive.cpp, canonical Huffman) build on
// exactly these routines so the pixel path — and therefore the measured
// fidelity — is common to both formats.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "imaging/image.hpp"

namespace bees::img::detail {

// Standard JPEG Annex K quantization tables.
inline constexpr std::array<int, 64> kLumaQuant = {
    16, 11, 10, 16, 24,  40,  51,  61,  12, 12, 14, 19, 26,  58,  60,  55,
    14, 13, 16, 24, 40,  57,  69,  56,  14, 17, 22, 29, 51,  87,  80,  62,
    18, 22, 37, 56, 68,  109, 103, 77,  24, 35, 55, 64, 81,  104, 113, 92,
    49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99};

inline constexpr std::array<int, 64> kChromaQuant = {
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99,
    24, 26, 56, 99, 99, 99, 99, 99, 47, 66, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99};

// Zigzag scan order for an 8x8 block.
inline constexpr std::array<int, 64> kZigzag = {
    0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
    12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

/// Quality-scaled quantization table, libjpeg convention.
std::array<int, 64> scaled_quant(const std::array<int, 64>& base, int quality);

/// One plane of samples with replicate padding to a multiple of 8.
struct Plane {
  int width = 0;  // true dimensions
  int height = 0;
  std::vector<float> samples;  // padded, row-major, level-shifted later

  int padded_w() const noexcept { return (width + 7) / 8 * 8; }
  int padded_h() const noexcept { return (height + 7) / 8 * 8; }

  float at(int x, int y) const noexcept {
    return samples[static_cast<std::size_t>(y) * padded_w() + x];
  }
  float& at(int x, int y) noexcept {
    return samples[static_cast<std::size_t>(y) * padded_w() + x];
  }
};

Plane make_plane(int w, int h);
void pad_replicate(Plane& p);

/// Decoder guard, called before anything is sized from a header: throws
/// util::DecodeError unless the coding planes of a w x h image (w, h > 0)
/// with `channels` channels have padded dimensions that fit in int and
/// `payload_bytes` could code all of their 8x8 blocks.  Every block of
/// every plane costs at least one bit in either format, so this bounds
/// what a stream can make a decoder allocate by the stream's own length.
/// Sizes are computed in 64 bits.
void check_coded_size(int w, int h, int channels, std::size_t payload_bytes);

inline std::uint8_t to_u8(float v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0f, 255.0f));
}

/// Splits `src` into its coding planes: [Y] for grayscale, [Y, Cb, Cr] with
/// 4:2:0 box-average chroma subsampling for RGB.  Samples are in 0..255
/// (the level shift happens at DCT time) and planes are replicate-padded.
std::vector<Plane> to_planes(const Image& src);

/// Inverse of to_planes: reassembles decoded planes (samples in 0..255)
/// into an interleaved image, with nearest-sample 4:2:0 chroma upsampling.
Image planes_to_image(int w, int h, int channels,
                      const std::vector<Plane>& planes);

}  // namespace bees::img::detail
