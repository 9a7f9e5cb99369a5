// PhotoNet-style baseline (Uddin et al., RTSS 2011 — cited by the paper as
// the metadata/global-feature end of the design space): redundancy is
// detected with geotags and color histograms only.  Extraction is orders
// cheaper than any local-feature scheme and the query payload is a few
// hundred bytes, but detection is markedly less accurate (see
// bench/ablation_global_features) — the trade-off the paper invokes to
// justify local features in BEES.
//
// Not part of the paper's own comparison set; provided as an extension
// baseline on the comparison schemes' engine (core/baselines.hpp).
#pragma once

#include "core/baselines.hpp"
#include "features/global.hpp"

namespace bees::core {

/// Color-histogram intersection above which PhotoNet considers two photos
/// redundant.  Calibrated on the synthetic scenes so that near-duplicates
/// (intersection ~0.85+) trip it while most unrelated pairs (~0.4-0.7)
/// do not.
inline constexpr double kPhotoNetThreshold = 0.8;

class PhotoNetScheme final : public QueryThenUploadScheme {
 public:
  PhotoNetScheme(wl::ImageStore& store, SchemeConfig config)
      : QueryThenUploadScheme("PhotoNet", store, std::move(config),
                              kPhotoNetThreshold) {}

 private:
  /// Computes image i's histogram.  extract() walks a batch in order from
  /// index 0, so i is the next slot and 0 starts a fresh batch.
  std::uint64_t extract(const wl::ImageSpec& spec, std::size_t i) override {
    histograms_.resize(i);
    std::uint64_t ops = 0;
    histograms_.push_back(feat::color_histogram(store().pixels(spec), &ops));
    return ops;
  }
  /// The query payload: the histogram (kBins floats) + the geotag.
  Query query(const wl::ImageSpec& spec, std::size_t i) override {
    const double fbytes = feat::ColorHistogram::kBins * 4.0 + 17.0;
    return {net::encode(net::GlobalQueryRequest{.histogram = histograms_[i],
                                                .geo = spec.geo,
                                                .feature_bytes = fbytes}),
            fbytes};
  }
  std::vector<std::uint8_t> upload_request(const wl::ImageSpec& spec,
                                           std::size_t i,
                                           double image_bytes) override {
    return net::encode(net::GlobalUploadRequest{
        .histogram = histograms_[i], .image_bytes = image_bytes,
        .geo = spec.geo});
  }

  /// The batch's histograms, each computed and charged once, then reused
  /// by the query and the upload envelope.
  std::vector<feat::ColorHistogram> histograms_;
};

}  // namespace bees::core
