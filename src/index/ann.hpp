// Approximate-nearest-neighbour candidate pruning for the server's feature
// index.  At millions of images the exact LSH vote scan is the query-cost
// wall: every stored descriptor colliding anywhere with the query is
// touched.  This front end shortlists candidates from two compact,
// image-level structures instead:
//
//   * MinHash banding — each image's descriptor-token set is sketched once
//     (bands x rows minima); a band's minima hash to one 64-bit signature,
//     and images sharing a band signature with the query are fetched from a
//     per-band table in O(1).  Collision probability per band is J^rows,
//     the classic banding curve, so near-duplicates surface reliably.
//   * Vocabulary routing — descriptors quantize to visual words in a tree
//     trained once from the seed (not from data), and an inverted file maps
//     word -> posting list.  Only images sharing a word are touched.
//
// Both signals are pure functions of the (query, image) pair — the tree and
// the hash salts derive from AnnParams alone, never from what else is
// stored.  That is the determinism argument: any sharding of the corpus
// computes identical per-image scores, so per-shard top-B lists merged with
// the (score desc, gid asc) tie-break reproduce the single-index shortlist
// exactly (DESIGN.md §11).  The exact packed-kernel rescore then runs on
// the shortlist only, making query cost sublinear in corpus size.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "features/keypoint.hpp"
#include "index/minhash.hpp"
#include "index/types.hpp"
#include "index/vocabulary.hpp"

namespace bees::idx {

struct AnnParams {
  /// Master switch; off keeps the exact LSH-vote candidate path.
  bool enabled = false;
  /// MinHash bands probed per query; each band holds `rows` sketch minima.
  int bands = 8;
  int rows = 4;
  /// Vocabulary-tree shape; the tree is trained on `vocabulary_sample`
  /// pseudo-random descriptors derived from `vocabulary.seed`, so it is a
  /// fixed data-independent quantizer (required for shard invariance).
  VocabularyParams vocabulary;
  int vocabulary_sample = 4096;
  /// Token quantization for the sketches (MinHashParams::hashes is derived
  /// as bands * rows and need not be set).
  MinHashParams minhash;
};

/// Sizes the exact-rescore shortlist from the caller's recall target: the
/// budget grows as 1/(1 - recall_target) on top of the top-k candidate
/// floor.  Single source of truth for the index and the cluster merge —
/// both must truncate to the same budget for byte-identical replies.
std::size_t ann_shortlist_budget(int max_candidates, double recall_target);

/// The ANN structures of one index: band tables + inverted file, built
/// from each image's row (band signatures, sorted word ids).  Rows are a
/// pure function of the descriptors and AnnParams, so a restored index
/// re-sketches them on insert instead of persisting them.
class AnnFrontEnd {
 public:
  explicit AnnFrontEnd(const AnnParams& params);

  /// Per-image derived state.
  struct Row {
    std::vector<std::uint64_t> band_signatures;  ///< `bands` entries.
    std::vector<std::uint32_t> words;            ///< sorted, unique.
  };

  /// Sketches and quantizes one image's descriptors.  Images must be
  /// inserted in ascending id order starting at 0 (the index's insertion
  /// order), which keeps every posting list sorted by id for free.
  void insert(ImageId id, const std::vector<feat::Descriptor256>& descriptors);

  /// Computes the row insert() would store, without storing it.
  Row make_row(const std::vector<feat::Descriptor256>& descriptors) const;

  /// Adds kBandWeight * (band collisions) + (shared distinct words) into
  /// scores[id] for every image sharing a band signature or a word with
  /// the query; every other image keeps its score.  Touches only
  /// posting-list entries — never the whole corpus.  A shorter `scores`
  /// is first zero-filled up to image_count().
  void collect(const std::vector<feat::Descriptor256>& query,
               std::vector<std::uint32_t>& scores) const;

  std::size_t image_count() const noexcept { return image_count_; }

  const AnnParams& params() const noexcept { return params_; }

 private:
  std::vector<std::uint64_t> band_signatures_of(
      const MinHashSketch& sketch) const;

  AnnParams params_;
  MinHasher hasher_;
  VocabularyTree tree_;
  std::size_t image_count_ = 0;

  /// band -> signature -> images (ascending ids).
  std::vector<std::unordered_map<std::uint64_t, std::vector<ImageId>>>
      band_tables_;
  /// word -> images (ascending ids).
  std::unordered_map<std::uint32_t, std::vector<ImageId>> inverted_;
};

}  // namespace bees::idx
