#include "features/global.hpp"

#include <algorithm>

namespace bees::feat {

ColorHistogram color_histogram(const img::Image& image, std::uint64_t* ops) {
  ColorHistogram h;
  if (image.empty()) return h;
  constexpr int kShift = 8 - 2;  // 256 levels -> 4 bins per channel
  const int w = image.width(), height = image.height();
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < w; ++x) {
      int r, g, b;
      if (image.is_gray()) {
        r = g = b = image.at(x, y, 0) >> kShift;
      } else {
        r = image.at(x, y, 0) >> kShift;
        g = image.at(x, y, 1) >> kShift;
        b = image.at(x, y, 2) >> kShift;
      }
      const int bin = (r * ColorHistogram::kBinsPerChannel + g) *
                          ColorHistogram::kBinsPerChannel +
                      b;
      h.bins[static_cast<std::size_t>(bin)] += 1.0f;
    }
  }
  const auto total = static_cast<float>(image.pixel_count());
  for (auto& v : h.bins) v /= total;
  if (ops) *ops += image.pixel_count() * 4;
  return h;
}

double histogram_intersection(const ColorHistogram& a,
                              const ColorHistogram& b) noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    sum += std::min(a.bins[i], b.bins[i]);
  }
  return sum;
}

}  // namespace bees::feat
