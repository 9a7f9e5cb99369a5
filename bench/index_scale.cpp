// Million-image index scaling: ingest a large synthetic corpus into the
// ANN-pruned FeatureIndex (descriptor LSH off, MinHash banding + vocabulary
// routing on) and compare the pruned query path against the exhaustive
// scan on perturbed second views of stored images.
//
// Three bars are *enforced* (non-zero exit on violation):
//   - rank-1 recall of the pruned path vs query_exact must reach >= 0.95
//     at the default recall target;
//   - the pruned path must rescore >= 10x fewer candidates than the
//     exhaustive scan (the point of the front end);
//   - peak RSS (VmHWM) must stay under a per-image memory ceiling, so the
//     ANN structures cannot silently regress into an O(corpus) blowup.
//
// Corpus construction is deliberately synthetic-but-adversarial: every
// image carries a few "clutter" descriptors drawn from a small shared pool
// (loading the inverted file the way common visual words do) plus a
// majority of image-unique descriptors.  A query view keeps most of the
// unique descriptors, drops some, adds fresh ones, and redraws its clutter
// — so rank-1 requires the shortlist to surface the right image among ~1M
// near-uniform distractors.
//
// Usage: index_scale [--smoke]
//   --smoke       ~20k images (the perfsmoke ctest entry, a few seconds)
//   default       ~200k images
//   BEES_BENCH_SCALE=paper   1M images (the committed baseline;
//                            several minutes, dominated by the exact
//                            reference scans)
// When BEES_BENCH_JSON names a directory the measured row is written to
// <dir>/BENCH_index.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "features/keypoint.hpp"
#include "index/feature_index.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bees;

// ---------------------------------------------------------------------------
// Synthetic corpus.

constexpr int kClutterPool = 4096;  ///< Shared "common word" descriptors.
constexpr int kClutterPerImage = 8;
constexpr int kUniquePerImage = 16;
constexpr int kUniqueKeptInQuery = 12;  ///< Query keeps 12/16, adds 4 fresh.

feat::Descriptor256 random_descriptor(util::Rng& rng) {
  feat::Descriptor256 d;
  for (std::uint64_t& w : d.bits) w = rng.next_u64();
  return d;
}

std::vector<feat::Descriptor256> make_clutter_pool() {
  util::Rng rng(0xc1a77e50ULL);
  std::vector<feat::Descriptor256> pool;
  pool.reserve(kClutterPool);
  for (int i = 0; i < kClutterPool; ++i) pool.push_back(random_descriptor(rng));
  return pool;
}

/// The stored view of image `id`: 8 pool draws + 16 unique descriptors.
feat::BinaryFeatures stored_view(const std::vector<feat::Descriptor256>& pool,
                                 std::uint64_t id) {
  feat::BinaryFeatures f;
  f.descriptors.reserve(kClutterPerImage + kUniquePerImage);
  util::Rng rng(0x57a9e000ULL + id);
  for (int i = 0; i < kClutterPerImage; ++i) {
    f.descriptors.push_back(pool[rng.next_u64() % pool.size()]);
  }
  for (int i = 0; i < kUniquePerImage; ++i) {
    f.descriptors.push_back(random_descriptor(rng));
  }
  return f;
}

/// A second view of image `id`: keeps 12 of the 16 unique descriptors,
/// substitutes 4 fresh ones, and redraws its clutter from the pool.
feat::BinaryFeatures query_view(const std::vector<feat::Descriptor256>& pool,
                                std::uint64_t id) {
  feat::BinaryFeatures f;
  f.descriptors.reserve(kClutterPerImage + kUniquePerImage);
  util::Rng stored_rng(0x57a9e000ULL + id);
  util::Rng fresh_rng(0x9e4b0000ULL + id);
  for (int i = 0; i < kClutterPerImage; ++i) {
    stored_rng.next_u64();  // skip the stored clutter choices
    f.descriptors.push_back(pool[fresh_rng.next_u64() % pool.size()]);
  }
  for (int i = 0; i < kUniquePerImage; ++i) {
    const feat::Descriptor256 d = random_descriptor(stored_rng);
    if (i < kUniqueKeptInQuery) {
      f.descriptors.push_back(d);
    } else {
      f.descriptors.push_back(random_descriptor(fresh_rng));
    }
  }
  return f;
}

// ---------------------------------------------------------------------------
// Peak RSS, from /proc/self/status (Linux).  Returns 0 when unavailable so
// the ceiling check degrades to informational on other platforms.
double vmhwm_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

struct Result {
  int images = 0;
  int queries = 0;
  double ingest_seconds = 0.0;
  double ann_query_us = 0.0;
  double exact_query_us = 0.0;
  double ann_candidates = 0.0;    ///< Mean rescored per pruned query.
  double exact_candidates = 0.0;  ///< Mean scanned per exact query.
  double prune_ratio = 0.0;
  double recall = 0.0;
  double vmhwm_bytes = 0.0;
  double ceiling_bytes = 0.0;
};

int main_impl(bool smoke) {
  // The million-image configuration: candidate generation is the ANN
  // front end alone, with a 16^3 = 4096-leaf vocabulary, so the index
  // keeps no per-descriptor LSH tables (their memory is
  // O(descriptors x tables)).
  idx::FeatureIndexParams params;
  params.ann.enabled = true;
  params.ann.vocabulary.branching = 16;
  params.ann.vocabulary.depth = 3;
  params.ann.vocabulary_sample = 16384;
  // One query over the whole corpus with nothing else running: the exact
  // reference scan is what a per-core rescore pool speeds up.
  params.rescore_threads = 0;

  const int kImages = smoke ? 20'000 : bench::sized(200'000, 1'000'000);
  // The exact reference scans the whole corpus per query, so it dominates
  // the runtime; recall is a proportion, and ~100 queries bound its
  // standard error near 2%.
  const int kQueries = smoke ? 50 : 100;
  // Ceiling: a fixed process baseline plus a per-image budget covering the
  // stored descriptors (768 B), the ANN row (band signatures + words), and
  // container overheads.  Generous enough for allocator slack, tight
  // enough that an accidental per-descriptor table or row copy trips it.
  const double ceiling =
      256.0 * 1024 * 1024 + 2048.0 * static_cast<double>(kImages);

  util::print_banner(std::cout, "Index scale: ANN-pruned query vs exact scan");
  std::cout << "images: " << kImages << ", reference queries: " << kQueries
            << ", recall target: " << idx::kDefaultRecallTarget << "\n\n";

  const std::vector<feat::Descriptor256> pool = make_clutter_pool();
  idx::FeatureIndex index(params);

  Result res;
  res.images = kImages;
  res.queries = kQueries;
  res.ceiling_bytes = ceiling;

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kImages; ++i) {
    index.insert(stored_view(pool, static_cast<std::uint64_t>(i)));
  }
  res.ingest_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Queries cover the corpus at a fixed stride so the sample is spread
  // over the whole insertion order (not just the oldest images).
  const std::uint64_t stride =
      static_cast<std::uint64_t>(kImages / kQueries);
  int rank1_agree = 0;
  double ann_seconds = 0.0, exact_seconds = 0.0;
  std::size_t ann_checked = 0, exact_checked = 0;
  for (int q = 0; q < kQueries; ++q) {
    const std::uint64_t id = static_cast<std::uint64_t>(q) * stride;
    const feat::BinaryFeatures view = query_view(pool, id);

    const auto a0 = std::chrono::steady_clock::now();
    const idx::QueryResult pruned = index.query(view);
    ann_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - a0)
            .count();

    const auto e0 = std::chrono::steady_clock::now();
    const idx::QueryResult exact = index.query_exact(view);
    exact_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - e0)
            .count();

    ann_checked += pruned.candidates_checked;
    exact_checked += exact.candidates_checked;
    if (pruned.best_id == exact.best_id) ++rank1_agree;
  }

  const double n = static_cast<double>(kQueries);
  res.ann_query_us = ann_seconds / n * 1e6;
  res.exact_query_us = exact_seconds / n * 1e6;
  res.ann_candidates = static_cast<double>(ann_checked) / n;
  res.exact_candidates = static_cast<double>(exact_checked) / n;
  res.prune_ratio =
      res.ann_candidates > 0.0 ? res.exact_candidates / res.ann_candidates
                               : 0.0;
  res.recall = static_cast<double>(rank1_agree) / n;
  res.vmhwm_bytes = vmhwm_bytes();

  util::Table table({"images", "ingest s", "img/s", "ann query",
                     "exact query", "rescored", "scanned", "prune", "recall",
                     "peak RSS", "ceiling"});
  table.add_row({std::to_string(res.images),
                 util::Table::num(res.ingest_seconds, 2),
                 util::Table::num(static_cast<double>(res.images) /
                                      std::max(res.ingest_seconds, 1e-9),
                                  0),
                 util::Table::num(res.ann_query_us, 0) + " us",
                 util::Table::num(res.exact_query_us, 0) + " us",
                 util::Table::num(res.ann_candidates, 1),
                 util::Table::num(res.exact_candidates, 0),
                 util::Table::num(res.prune_ratio, 1) + "x",
                 util::Table::num(res.recall, 3),
                 bench::mb(res.vmhwm_bytes), bench::mb(res.ceiling_bytes)});
  table.print(std::cout);

  const std::string label = smoke ? "smoke"
                            : bench::paper_scale() ? "paper"
                                                   : "default";
  bench::BenchJson json("index");
  json.add(label, {{"images", res.images},
                   {"queries", res.queries},
                   {"ingest_seconds", res.ingest_seconds},
                   {"ann_query_us", res.ann_query_us},
                   {"exact_query_us", res.exact_query_us},
                   {"ann_candidates", res.ann_candidates},
                   {"exact_candidates", res.exact_candidates},
                   {"prune_ratio", res.prune_ratio},
                   {"recall", res.recall},
                   {"vmhwm_bytes", res.vmhwm_bytes},
                   {"ceiling_bytes", res.ceiling_bytes}});

  int failures = 0;
  std::cout << "\nBars (enforced):\n";
  std::cout << "  rank-1 recall vs exact: " << util::Table::num(res.recall, 3)
            << " (required >= 0.95)\n";
  if (res.recall < 0.95) {
    std::cerr << "FAIL: pruned query recall below 0.95\n";
    ++failures;
  }
  std::cout << "  candidates pruned: " << util::Table::num(res.prune_ratio, 1)
            << "x fewer rescores (required >= 10x)\n";
  if (res.prune_ratio < 10.0) {
    std::cerr << "FAIL: pruned query did not cut rescores by 10x\n";
    ++failures;
  }
  if (res.vmhwm_bytes > 0.0) {
    std::cout << "  peak RSS: " << bench::mb(res.vmhwm_bytes)
              << " (ceiling " << bench::mb(res.ceiling_bytes) << ")\n";
    if (res.vmhwm_bytes > res.ceiling_bytes) {
      std::cerr << "FAIL: peak RSS exceeded the memory ceiling\n";
      ++failures;
    }
  } else {
    std::cout << "  peak RSS: unavailable on this platform (ceiling "
              << bench::mb(res.ceiling_bytes) << ", informational)\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return main_impl(smoke);
}
