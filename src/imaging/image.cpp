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

}  // namespace bees::img
