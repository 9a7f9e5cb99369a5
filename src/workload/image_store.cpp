#include "workload/image_store.hpp"

#include <algorithm>
#include <cmath>

#include "imaging/codec.hpp"
#include "imaging/transform.hpp"

namespace bees::wl {

std::uint64_t ImageStore::variant_key(std::uint64_t base, std::uint32_t tag,
                                      double bucketed) noexcept {
  const auto bucket =
      static_cast<std::uint64_t>(std::llround(bucketed * 100.0));
  std::uint64_t h = base ^ (static_cast<std::uint64_t>(tag) << 48) ^
                    (bucket << 32);
  return util::splitmix64(h);
}

const img::Image& ImageStore::pixels(const ImageSpec& spec) {
  const std::uint64_t key = spec.cache_key();
  const auto it = pixel_map_.find(key);
  if (it != pixel_map_.end()) {
    // Refresh LRU position.
    pixel_lru_.splice(pixel_lru_.begin(), pixel_lru_, it->second);
    return it->second->second;
  }
  pixel_lru_.emplace_front(key, spec.render());
  pixel_map_[key] = pixel_lru_.begin();
  if (pixel_lru_.size() > params_.pixel_cache_capacity) {
    pixel_map_.erase(pixel_lru_.back().first);
    pixel_lru_.pop_back();
  }
  return pixel_lru_.front().second;
}

const feat::BinaryFeatures& ImageStore::orb(const ImageSpec& spec,
                                            double compression) {
  const std::uint64_t key = variant_key(spec.cache_key(), 1, compression);
  const auto it = orb_cache_.find(key);
  if (it != orb_cache_.end()) return it->second;
  const img::Image& full = pixels(spec);
  feat::BinaryFeatures features;
  if (compression > 0.0) {
    const img::Image small = img::bitmap_compress(full, compression);
    features = feat::extract_orb(small, params_.orb);
    // The client also pays for the downscale itself.
    features.stats.ops += small.pixel_count() * 4;
  } else {
    features = feat::extract_orb(full, params_.orb);
  }
  return orb_cache_.emplace(key, std::move(features)).first->second;
}

const feat::FloatFeatures& ImageStore::sift(const ImageSpec& spec) {
  const std::uint64_t key = variant_key(spec.cache_key(), 2, 0.0);
  const auto it = sift_cache_.find(key);
  if (it != sift_cache_.end()) return it->second;
  feat::FloatFeatures features = feat::extract_sift(pixels(spec), params_.sift);
  return sift_cache_.emplace(key, std::move(features)).first->second;
}

const feat::FloatFeatures& ImageStore::pca_sift(const ImageSpec& spec,
                                                const feat::PcaModel& model) {
  const std::uint64_t key = variant_key(spec.cache_key(), 3, 0.0);
  const auto it = pca_cache_.find(key);
  if (it != pca_cache_.end()) return it->second;
  feat::FloatFeatures projected = model.project_features(sift(spec));
  return pca_cache_.emplace(key, std::move(projected)).first->second;
}

EncodedImage ImageStore::encoded(const ImageSpec& spec, double resolution_prop,
                                 double quality_prop) {
  const std::uint64_t key = variant_key(
      variant_key(spec.cache_key(), 4, resolution_prop), 5, quality_prop);
  const auto it = encoded_cache_.find(key);
  if (it != encoded_cache_.end()) return it->second;

  const img::Image& full = pixels(spec);
  EncodedImage result;
  const img::Image* to_encode = &full;
  img::Image reduced;
  if (resolution_prop > 0.0) {
    reduced = img::bitmap_compress(full, resolution_prop);
    to_encode = &reduced;
    result.ops += reduced.pixel_count() * 4;  // bilinear resize
  }
  const int quality = img::quality_from_proportion(quality_prop);
  const auto bytes = img::encode_jpeg_like(*to_encode, quality);
  result.bytes = bytes.size();
  // DCT + quantization + entropy coding work, ~32 ops/pixel measured from
  // the codec's inner loops.
  result.ops += to_encode->pixel_count() * 32;
  result.width = to_encode->width();
  result.height = to_encode->height();
  encoded_cache_[key] = result;
  return result;
}

const std::vector<std::uint8_t>& ImageStore::encoded_payload(
    const ImageSpec& spec, double resolution_prop, double quality_prop) {
  const std::uint64_t key = variant_key(
      variant_key(spec.cache_key(), 4, resolution_prop), 5, quality_prop);
  const auto it = payload_cache_.find(key);
  if (it != payload_cache_.end()) return it->second;

  // Same pipeline as encoded() — the cached EncodedImage::bytes for this
  // variant always equals the payload's size().  CPU work is charged via
  // encoded(); this accessor only materializes the bytes.
  const img::Image& full = pixels(spec);
  const img::Image* to_encode = &full;
  img::Image reduced;
  if (resolution_prop > 0.0) {
    reduced = img::bitmap_compress(full, resolution_prop);
    to_encode = &reduced;
  }
  const int quality = img::quality_from_proportion(quality_prop);
  std::vector<std::uint8_t> bytes = img::encode_jpeg_like(*to_encode, quality);
  return payload_cache_.emplace(key, std::move(bytes)).first->second;
}

const img::ProgressiveStream& ImageStore::progressive_payload(
    const ImageSpec& spec, double resolution_prop, double quality_prop,
    int scans) {
  const int s = std::clamp(scans, 1, img::kMaxScans);
  const std::uint64_t key = variant_key(
      variant_key(variant_key(spec.cache_key(), 4, resolution_prop), 5,
                  quality_prop),
      6, static_cast<double>(s));
  const auto it = progressive_cache_.find(key);
  if (it != progressive_cache_.end()) return it->second;

  // Same render/resize pipeline as encoded_payload(); only the entropy
  // stage differs (v2 progressive scans instead of the v1 sequential
  // stream).  CPU work stays charged via encoded() in the legacy domain.
  const img::Image& full = pixels(spec);
  const img::Image* to_encode = &full;
  img::Image reduced;
  if (resolution_prop > 0.0) {
    reduced = img::bitmap_compress(full, resolution_prop);
    to_encode = &reduced;
  }
  const int quality = img::quality_from_proportion(quality_prop);
  img::ProgressiveStream stream = img::encode_progressive(*to_encode, quality, s);
  return progressive_cache_.emplace(key, std::move(stream)).first->second;
}

const img::ProgressiveStream& ImageStore::original_progressive_payload(
    const ImageSpec& spec, int scans) {
  return progressive_payload(spec, 0.0, original_quality_prop(), scans);
}

EncodedImage ImageStore::original(const ImageSpec& spec) {
  return encoded(spec, 0.0, original_quality_prop());
}

}  // namespace bees::wl
