// In-memory bitmap type shared by the whole system.  8-bit interleaved
// row-major storage with 1 (grayscale) or 3 (RGB) channels — the "image
// bitmap" whose compression proportion the paper's AFE stage adjusts.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace bees::img {

/// An 8-bit image.  Invariant: data.size() == width * height * channels,
/// channels is 1 or 3.  Cheap to move, explicit to copy (copies are real
/// megabyte-scale allocations in this system).
class Image {
 public:
  Image() = default;

  /// Allocates a width x height image with the given channel count,
  /// zero-filled.  Throws std::invalid_argument for non-positive dimensions
  /// or unsupported channel counts.
  Image(int width, int height, int channels);

  int width() const noexcept { return width_; }
  int height() const noexcept { return height_; }
  int channels() const noexcept { return channels_; }
  bool empty() const noexcept { return data_.empty(); }
  std::size_t pixel_count() const noexcept {
    return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
  }
  std::size_t byte_size() const noexcept { return data_.size(); }

  bool is_gray() const noexcept { return channels_ == 1; }

  /// Unchecked pixel access (hot paths); caller guarantees bounds.
  std::uint8_t at(int x, int y, int c = 0) const noexcept {
    return data_[index(x, y, c)];
  }
  void set(int x, int y, std::uint8_t v, int c = 0) noexcept {
    data_[index(x, y, c)] = v;
  }

  /// Bounds-clamped read: coordinates outside the image are clamped to the
  /// border (replicate padding), the convention used by the filters.
  std::uint8_t at_clamped(int x, int y, int c = 0) const noexcept {
    return at(std::clamp(x, 0, width_ - 1), std::clamp(y, 0, height_ - 1), c);
  }

  const std::vector<std::uint8_t>& data() const noexcept { return data_; }
  std::vector<std::uint8_t>& data() noexcept { return data_; }

  void fill(std::uint8_t v) noexcept;

  bool same_shape(const Image& other) const noexcept {
    return width_ == other.width_ && height_ == other.height_ &&
           channels_ == other.channels_;
  }

  bool operator==(const Image& other) const noexcept = default;

 private:
  std::size_t index(int x, int y, int c) const noexcept {
    return (static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
            static_cast<std::size_t>(x)) *
               static_cast<std::size_t>(channels_) +
           static_cast<std::size_t>(c);
  }

  int width_ = 0;
  int height_ = 0;
  int channels_ = 0;
  std::vector<std::uint8_t> data_;
};

}  // namespace bees::img
