// Global image features: a color histogram descriptor of the whole image.
// The paper (§III-D) contrasts these with local features — cheap and
// compact but less robust — and the MRC baseline it compares against
// (Dao et al., CoNEXT 2014) actually combines BOTH: a global-feature
// prefilter narrows candidates before local features confirm.  This module
// provides that global stage; the MRC scheme uses it as its first-stage
// filter, and PhotoNet-style metadata dedup can be built on it directly.
#pragma once

#include <array>
#include <cstdint>

#include "imaging/image.hpp"

namespace bees::feat {

/// A normalized color histogram: `kBinsPerChannel`^3 RGB cells (4x4x4 = 64
/// bins), L1-normalized.  ~256 B on the wire as 32-bit floats.
struct ColorHistogram {
  static constexpr int kBinsPerChannel = 4;
  static constexpr int kBins =
      kBinsPerChannel * kBinsPerChannel * kBinsPerChannel;

  std::array<float, kBins> bins{};

  bool operator==(const ColorHistogram&) const noexcept = default;
};

/// Computes the histogram of an RGB image (a grayscale input populates the
/// gray diagonal cells).  `ops` (if non-null) accumulates the work done —
/// one pass over the pixels, orders cheaper than any local extractor.
ColorHistogram color_histogram(const img::Image& image,
                               std::uint64_t* ops = nullptr);

/// Histogram intersection similarity in [0, 1]: sum of min(a_i, b_i).
/// 1 means identical color distributions.
double histogram_intersection(const ColorHistogram& a,
                              const ColorHistogram& b) noexcept;

}  // namespace bees::feat
