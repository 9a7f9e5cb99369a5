// JPEG-style lossy transform codec, built from scratch (no libjpeg): 8x8
// DCT, libjpeg-compatible quality-scaled quantization, zigzag scan, and
// Exp-Golomb entropy coding, with 4:2:0 chroma subsampling for RGB input.
//
// This is the "quality compression" substrate of the paper's AIU stage: the
// compression proportion knob maps onto the codec quality factor, and the
// encoder output is the actual byte stream whose size the bandwidth
// experiments (Fig. 5a) measure.
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/image.hpp"

namespace bees::img {

/// Encodes `src` (1- or 3-channel) at JPEG-style quality in [1, 100].
/// Higher quality => larger output and higher fidelity.
std::vector<std::uint8_t> encode_jpeg_like(const Image& src, int quality);

/// Decodes a stream produced by encode_jpeg_like.  Throws
/// util::DecodeError on malformed input.
Image decode_jpeg_like(const std::vector<std::uint8_t>& bytes);

/// Maps the paper's quality-compression proportion p in [0, 1) onto the
/// codec quality factor: proportion 0 -> quality 100 (near lossless),
/// proportion 0.85 (the paper's fixed choice) -> quality 15.
int quality_from_proportion(double proportion) noexcept;

/// Forward 8x8 DCT-II on a block given in row-major `in`, result in `out`
/// (both length 64).  Exposed for testing against the orthonormality
/// property.
void forward_dct_8x8(const float* in, float* out) noexcept;
/// Inverse of forward_dct_8x8.
void inverse_dct_8x8(const float* in, float* out) noexcept;

}  // namespace bees::img
