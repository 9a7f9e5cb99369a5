// Geometric and photometric transforms on Image.  These implement both the
// system's own operations (bitmap compression = downscale before feature
// extraction, resolution compression before upload) and the workload
// generator's view perturbations (warp, illumination, noise) that create the
// "4 views of one scene" group structure of the Kentucky imageset.
#pragma once

#include "imaging/image.hpp"
#include "util/rng.hpp"

namespace bees::img {

/// Converts an RGB image to grayscale using ITU-R BT.601 luma weights.
/// A grayscale input is copied through unchanged.
Image to_gray(const Image& src);

/// Bilinear resize to new_width x new_height (both must be positive).
Image resize(const Image& src, int new_width, int new_height);

/// Applies the paper's "bitmap compression": shrinks the length and width by
/// `proportion` in [0, 1), i.e. new_dim = dim * (1 - proportion).  Proportion
/// 0 returns a copy.  Dimensions are floored at 8 pixels.
Image bitmap_compress(const Image& src, double proportion);

/// Separable Gaussian blur with the given sigma (> 0); kernel radius is
/// ceil(3*sigma).
Image gaussian_blur(const Image& src, double sigma);

/// 2x3 affine matrix mapping destination pixel (x, y, 1) to source
/// coordinates.  Row-major: [a b c; d e f].
struct Affine {
  double a = 1, b = 0, c = 0;
  double d = 0, e = 1, f = 0;

  /// Composes a transform: rotate by `angle_rad` about (cx, cy), scale by
  /// `scale`, then translate by (tx, ty).  Returns the inverse map suitable
  /// for warp()'s destination->source convention.
  static Affine rotation_about(double cx, double cy, double angle_rad,
                               double scale = 1.0, double tx = 0.0,
                               double ty = 0.0);
};

/// Warps `src` through the destination->source map `m` with bilinear
/// sampling and replicate borders; output has the same shape as the input.
Image warp_affine(const Image& src, const Affine& m);

/// Photometric adjustment: out = clamp(gain * in + bias).
Image adjust_brightness_contrast(const Image& src, double gain, double bias);

/// Adds i.i.d. Gaussian sensor noise with the given standard deviation
/// (in 8-bit levels) using `rng`.
Image add_gaussian_noise(const Image& src, double stddev, util::Rng& rng);

}  // namespace bees::img
