// FAST-9 corner detection (Rosten & Drummond) with a Harris corner measure
// for ranking, as used by the ORB pipeline.
#pragma once

#include <vector>

#include "features/keypoint.hpp"
#include "imaging/image.hpp"

namespace bees::feat {

struct FastParams {
  int threshold = 20;          ///< Intensity difference for the arc test.
  bool nonmax_suppression = true;
  int border = 16;             ///< Pixels skipped at the image border (must
                               ///< cover the descriptor patch radius).
};

/// Detects FAST-9 corners in a grayscale image.  The response is the sum of
/// absolute differences over the contiguous arc (used for non-max
/// suppression).  `ops` (if non-null) accumulates the arithmetic work done,
/// feeding the energy model.
std::vector<Keypoint> detect_fast(const img::Image& gray,
                                  const FastParams& params,
                                  std::uint64_t* ops = nullptr);

/// Harris corner response at (x, y) computed over a 7x7 window of
/// central-difference gradients (replicate borders); used to re-rank FAST
/// corners (the "oFAST" ordering in ORB).
float harris_response(const img::Image& gray, int x, int y);

}  // namespace bees::feat
