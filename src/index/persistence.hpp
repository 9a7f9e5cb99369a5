// Durable storage for the server's feature indices: the cloud side of BEES
// must survive restarts without re-receiving every image, so an index's
// entries (descriptor sets + geotags) serialize to a snapshot.  LSH tables,
// ANN rows and centroids are derived state and are rebuilt on load.  Both
// the binary (ORB) index and the float (SIFT / PCA-SIFT) index used by the
// SmartEye path snapshot the same way.
//
// Two layers: encode_*/decode_* produce the uncompressed snapshot bytes
// (embedded by the serving layer's per-shard checkpoints), while
// save_index_snapshot/load_index_snapshot add LZ compression and file I/O
// for standalone binary-index files (bees_sim --save-index / --load-index).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "index/feature_index.hpp"

namespace bees::idx {

/// Snapshot of every indexed image as raw bytes (magic + version + entries).
std::vector<std::uint8_t> encode_index_snapshot(const FeatureIndex& index);

/// Decodes encode_index_snapshot bytes, handing every image to
/// visit(features, geo) in id order, and returns the image count.  The
/// serving layer seeds its shards straight from the entries, so a restore
/// builds each index entry once.  Throws util::DecodeError on corrupt
/// bytes.
std::size_t visit_index_snapshot(
    const std::vector<std::uint8_t>& bytes,
    const std::function<void(feat::BinaryFeatures, const GeoTag&)>& visit);

/// Rebuilds an index from encode_index_snapshot bytes, inserting every
/// image into a fresh index constructed with `params` (the LSH and ANN
/// configuration can differ from the one that wrote the snapshot).  Throws
/// util::DecodeError on corrupt bytes.
FeatureIndex decode_index_snapshot(const std::vector<std::uint8_t>& bytes,
                                   const FeatureIndexParams& params = {});

/// Float-index counterparts (the SmartEye path's index).
std::vector<std::uint8_t> encode_float_index_snapshot(
    const FloatFeatureIndex& index);
std::size_t visit_float_index_snapshot(
    const std::vector<std::uint8_t>& bytes,
    const std::function<void(feat::FloatFeatures, const GeoTag&)>& visit);
FloatFeatureIndex decode_float_index_snapshot(
    const std::vector<std::uint8_t>& bytes,
    const FloatFeatureIndex::Params& params = {});

/// Writes an LZ-compressed snapshot of every indexed image to `path`.
/// Throws std::runtime_error on I/O failure.
void save_index_snapshot(const FeatureIndex& index, const std::string& path);

/// Inverse of save_index_snapshot.  Throws std::runtime_error on I/O
/// failure and util::DecodeError on a corrupt snapshot.
FeatureIndex load_index_snapshot(const std::string& path,
                                 const FeatureIndexParams& params = {});

}  // namespace bees::idx
