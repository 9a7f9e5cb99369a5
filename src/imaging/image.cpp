#include "imaging/image.hpp"

#include <algorithm>

namespace bees::img {

Image::Image(int width, int height, int channels)
    : width_(width), height_(height), channels_(channels) {
  if (width <= 0 || height <= 0) {
    throw std::invalid_argument("Image: dimensions must be positive");
  }
  if (channels != 1 && channels != 3) {
    throw std::invalid_argument("Image: channels must be 1 or 3");
  }
  data_.assign(static_cast<std::size_t>(width) *
                   static_cast<std::size_t>(height) *
                   static_cast<std::size_t>(channels),
               0);
}

void Image::fill(std::uint8_t v) noexcept {
  std::fill(data_.begin(), data_.end(), v);
}

IntegralImage::IntegralImage(const Image& gray)
    : width_(gray.width()), height_(gray.height()) {
  sums_.assign(static_cast<std::size_t>(width_ + 1) *
                   static_cast<std::size_t>(height_ + 1),
               0);
  const auto stride = static_cast<std::size_t>(width_ + 1);
  for (int y = 0; y < height_; ++y) {
    std::int64_t row = 0;
    for (int x = 0; x < width_; ++x) {
      row += gray.at(x, y, 0);
      sums_[static_cast<std::size_t>(y + 1) * stride +
            static_cast<std::size_t>(x + 1)] =
          sums_[static_cast<std::size_t>(y) * stride +
                static_cast<std::size_t>(x + 1)] +
          row;
    }
  }
}

std::int64_t IntegralImage::box_sum(int x0, int y0, int x1,
                                    int y1) const noexcept {
  x0 = std::clamp(x0, 0, width_ - 1);
  x1 = std::clamp(x1, 0, width_ - 1);
  y0 = std::clamp(y0, 0, height_ - 1);
  y1 = std::clamp(y1, 0, height_ - 1);
  if (x0 > x1 || y0 > y1) return 0;
  const auto stride = static_cast<std::size_t>(width_ + 1);
  auto s = [&](int x, int y) {
    return sums_[static_cast<std::size_t>(y) * stride +
                 static_cast<std::size_t>(x)];
  };
  return s(x1 + 1, y1 + 1) - s(x0, y1 + 1) - s(x1 + 1, y0) + s(x0, y0);
}

}  // namespace bees::img
