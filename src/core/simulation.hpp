// Experiment drivers shared by the benches and integration tests: the
// battery-lifetime loop of Fig. 9 (upload one group per interval until the
// battery dies), the multi-phone coverage protocol of Fig. 12, and the
// cross-batch redundancy seeding used by Figs. 7, 10, and 11.
#pragma once

#include <algorithm>
#include <vector>

#include "core/scheme.hpp"
#include "features/global.hpp"
#include "features/pca.hpp"
#include "util/rng.hpp"
#include "workload/imageset.hpp"

namespace bees::core {

/// Pre-seeds `server` so that a `ratio` fraction of `batch` has a
/// near-duplicate (similarity > 0.3) already stored — the Fig. 7 setup of
/// "adding the redundant images into the servers".  Duplicates are indexed
/// under both feature types (when `pca` is provided) so every scheme can
/// detect them, as the paper's fairness note requires.  Returns the batch
/// indices that were made redundant.
/// `image_byte_scale` scales the recorded thumbnail payloads into the same
/// paper-byte domain as image uploads.
///
/// Templated over the server so the same seeding drives a single
/// cloud::Server or a serve::Cluster: `ServerLike` needs seed_binary /
/// seed_global / seed_float with cloud::Server's signatures.
template <typename ServerLike>
std::vector<std::size_t> seed_cross_batch_redundancy(
    const std::vector<wl::ImageSpec>& batch, double ratio,
    wl::ImageStore& store, ServerLike& server, const feat::PcaModel* pca,
    std::uint64_t seed, double image_byte_scale = 1.0) {
  util::Rng rng(seed);
  std::vector<std::size_t> indices(batch.size());
  for (std::size_t i = 0; i < indices.size(); ++i) indices[i] = i;
  rng.shuffle(indices);
  const auto count = static_cast<std::size_t>(
      std::clamp(ratio, 0.0, 1.0) * static_cast<double>(batch.size()) + 0.5);
  indices.resize(std::min(count, batch.size()));

  for (const std::size_t i : indices) {
    const wl::ImageSpec dup = wl::make_near_duplicate(batch[i], seed ^ i);
    const double thumb =
        static_cast<double>(store.thumbnail(dup).bytes) * image_byte_scale;
    server.seed_binary(store.orb(dup, 0.0), dup.geo, thumb);
    server.seed_global(feat::color_histogram(store.pixels(dup)), dup.geo);
    if (pca != nullptr) {
      server.seed_float(store.pca_sift(dup, *pca), dup.geo);
    }
  }
  std::sort(indices.begin(), indices.end());
  return indices;
}

/// One sample of the Fig. 9 battery curve.
struct LifetimePoint {
  double hours = 0.0;
  double battery_fraction = 1.0;
};

struct LifetimeResult {
  std::vector<LifetimePoint> curve;  ///< One point per completed interval.
  double lifetime_hours = 0.0;       ///< Time at which the battery died (or
                                     ///< the run ended with charge left).
  int groups_uploaded = 0;
  bool battery_died = false;
  BatchReport totals;
};

/// Uploads one group every `interval_s` seconds until the battery dies or
/// the groups run out.  Idle/screen power drains for the full wall-clock
/// interval; active costs are charged inside the scheme.
LifetimeResult run_lifetime(UploadScheme& scheme,
                            const std::vector<std::vector<wl::ImageSpec>>& groups,
                            double interval_s, cloud::Server& server,
                            net::Channel& channel, energy::Battery& battery);

/// One phone of the Fig. 12 coverage experiment.
struct CoveragePhone {
  UploadScheme* scheme = nullptr;
  net::Channel channel;
  energy::Battery battery;
  std::vector<std::vector<wl::ImageSpec>> groups;
  std::size_t next_group = 0;
};

struct CoverageResult {
  std::size_t images_received = 0;
  std::size_t unique_locations = 0;
  double hours_elapsed = 0.0;
};

/// Runs all phones against one shared server, one group per phone per
/// interval, until every battery is dead or every group uploaded.
CoverageResult run_coverage(std::vector<CoveragePhone>& phones,
                            double interval_s, cloud::Server& server);

/// Splits an imageset into consecutive fixed-size upload groups (the last
/// partial group is kept).
std::vector<std::vector<wl::ImageSpec>> slice_groups(const wl::Imageset& set,
                                                     std::size_t group_size);

}  // namespace bees::core
