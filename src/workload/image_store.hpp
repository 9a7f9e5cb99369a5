// Caching layer between ImageSpec recipes and the expensive operations on
// them (rendering, feature extraction, encoding).  Schemes and benches run
// the same images through many configurations; the store computes each
// (image, variant) once and replays the result — including the recorded
// CPU work, so energy accounting charges every logical use even on a cache
// hit.
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "features/orb.hpp"
#include "features/pca.hpp"
#include "features/sift.hpp"
#include "imaging/progressive.hpp"
#include "workload/imageset.hpp"

namespace bees::wl {

/// Result of encoding one image variant for upload.
struct EncodedImage {
  std::size_t bytes = 0;   ///< Compressed payload size.
  std::uint64_t ops = 0;   ///< CPU work of resize + codec (for the energy model).
  int width = 0;           ///< Resolution after resolution compression.
  int height = 0;
};

class ImageStore {
 public:
  struct Params {
    feat::OrbParams orb;
    feat::SiftParams sift;
    /// Rendered images kept in the LRU pixel cache.
    std::size_t pixel_cache_capacity = 48;
    /// Codec quality for "original" (as-shot) images.
    int original_quality = 92;
  };

  ImageStore() : ImageStore(Params{}) {}
  explicit ImageStore(const Params& params) : params_(params) {}

  /// Rendered pixels (LRU-cached).
  const img::Image& pixels(const ImageSpec& spec);

  /// ORB features extracted after bitmap compression by `compression`
  /// (paper AFE; 0 = full-size).  Proportions are bucketed to 0.01.
  const feat::BinaryFeatures& orb(const ImageSpec& spec,
                                  double compression = 0.0);

  /// SIFT-style features of the full-size image.
  const feat::FloatFeatures& sift(const ImageSpec& spec);

  /// PCA-SIFT features (SIFT projected through `model`).  The cache assumes
  /// a single PCA model per store instance.
  const feat::FloatFeatures& pca_sift(const ImageSpec& spec,
                                      const feat::PcaModel& model);

  /// Size and cost of the upload payload after resolution compression
  /// `resolution_prop` and quality compression `quality_prop` (paper AIU).
  EncodedImage encoded(const ImageSpec& spec, double resolution_prop,
                       double quality_prop);

  /// Size of the image as shot (no resolution compression, original
  /// quality) — what Direct Upload sends.
  EncodedImage original(const ImageSpec& spec);

  /// The thumbnail the server keeps for feedback (MRC's downlink, the
  /// thumbnail size every upload declares): resolution proportion 0.75,
  /// quality proportion 0.5.
  EncodedImage thumbnail(const ImageSpec& spec) {
    return encoded(spec, 0.75, 0.5);
  }

  /// Quality proportion of the as-shot variant: the inverse of
  /// img::quality_from_proportion at Params::original_quality.
  double original_quality_prop() const noexcept {
    return 1.0 - params_.original_quality / 100.0;
  }

  /// The actual codec output bytes behind encoded() — what the
  /// chunk-manifest upload plane hashes and ships.  Cached separately from
  /// the size/ops record so legacy (non-chunked) runs never hold payload
  /// bytes; only fetch this when chunking is enabled.  The reference stays
  /// valid for the store's lifetime (payloads are never evicted).
  const std::vector<std::uint8_t>& encoded_payload(const ImageSpec& spec,
                                                   double resolution_prop,
                                                   double quality_prop);

  /// Progressive (v2) stream for the same variant as encoded_payload(),
  /// split into `scans` spectral-selection / successive-approximation scans
  /// (clamped to [1, img::kMaxScans]).  Cached like payloads: never
  /// evicted, reference stays valid for the store's lifetime.  Only fetch
  /// this when the progressive transfer plane is enabled.
  const img::ProgressiveStream& progressive_payload(const ImageSpec& spec,
                                                    double resolution_prop,
                                                    double quality_prop,
                                                    int scans);
  /// Progressive stream of the as-shot variant (Direct Upload & friends).
  const img::ProgressiveStream& original_progressive_payload(
      const ImageSpec& spec, int scans);

  const Params& params() const noexcept { return params_; }

  /// Cache statistics for tests.
  std::size_t pixel_cache_size() const noexcept { return pixel_lru_.size(); }

 private:
  static std::uint64_t variant_key(std::uint64_t base, std::uint32_t tag,
                                   double bucketed) noexcept;

  Params params_;

  // LRU pixel cache.
  std::list<std::pair<std::uint64_t, img::Image>> pixel_lru_;
  std::unordered_map<std::uint64_t,
                     std::list<std::pair<std::uint64_t, img::Image>>::iterator>
      pixel_map_;

  std::unordered_map<std::uint64_t, feat::BinaryFeatures> orb_cache_;
  std::unordered_map<std::uint64_t, feat::FloatFeatures> sift_cache_;
  std::unordered_map<std::uint64_t, feat::FloatFeatures> pca_cache_;
  std::unordered_map<std::uint64_t, EncodedImage> encoded_cache_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> payload_cache_;
  std::unordered_map<std::uint64_t, img::ProgressiveStream> progressive_cache_;
};

}  // namespace bees::wl
