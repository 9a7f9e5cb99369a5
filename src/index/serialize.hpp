// Wire format for feature sets.  These byte counts are what the simulated
// channel actually carries when a client uploads features for redundancy
// detection, and what Table I measures as feature space overhead.  The
// geotag and color-histogram codecs beside them are the ones every format
// shares: wire messages, WAL records, shard snapshots and index snapshots.
#pragma once

#include <cstdint>
#include <vector>

#include "features/global.hpp"
#include "features/keypoint.hpp"
#include "index/geo.hpp"
#include "util/byte_io.hpp"

namespace bees::idx {

/// Encodes a binary (ORB) feature set: varint count + 32 bytes/descriptor.
std::vector<std::uint8_t> serialize_binary(const feat::BinaryFeatures& f);
/// Inverse of serialize_binary (keypoint geometry is not carried — the
/// server only needs descriptors).  Throws util::DecodeError on bad input.
feat::BinaryFeatures deserialize_binary(
    const std::vector<std::uint8_t>& bytes);

/// Encodes a float (SIFT / PCA-SIFT) feature set: varint count + varint dim
/// + 4 bytes per component.
std::vector<std::uint8_t> serialize_float(const feat::FloatFeatures& f);
feat::FloatFeatures deserialize_float(const std::vector<std::uint8_t>& bytes);

/// Writes a geotag as 17 bytes: u8 valid, f64 lon, f64 lat.
void put_geo(util::ByteWriter& w, const GeoTag& geo);
/// Inverse of put_geo; throws util::DecodeError on a short buffer.
GeoTag get_geo(util::ByteReader& r);

/// Writes a color histogram as its kBins little-endian f32s.
void put_histogram(util::ByteWriter& w, const feat::ColorHistogram& h);
/// Inverse of put_histogram; throws util::DecodeError on a short buffer.
feat::ColorHistogram get_histogram(util::ByteReader& r);

}  // namespace bees::idx
