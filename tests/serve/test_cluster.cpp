// The cluster's contract: any shard count produces byte-identical replies
// and identical accounting to one serial cloud::Server fed the same
// operations in the same order.
#include "serve/cluster.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cloud/rpc.hpp"
#include "cloud/server.hpp"
#include "features/global.hpp"
#include "features/orb.hpp"
#include "features/sift.hpp"
#include "imaging/synth.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace bees::serve {
namespace {

feat::BinaryFeatures make_binary(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

feat::FloatFeatures make_float(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_sift(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

feat::ColorHistogram make_histogram(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::color_histogram(
      img::render_view(img::SceneSpec{seed, 18, 4}, 120, 90, pert, rng));
}

idx::GeoTag geo_of(int i) {
  // Three distinct places so routing exercises co-location, plus the
  // occasional untagged image.
  if (i % 5 == 4) return {};
  return {2.29 + 0.01 * (i % 3), 48.85 + 0.002 * (i % 3), true};
}

/// The mixed workload every equivalence test drives: seeds, then an
/// interleaving of uploads and queries covering all message types.
std::vector<std::vector<std::uint8_t>> workload_requests() {
  std::vector<std::vector<std::uint8_t>> requests;
  for (int i = 0; i < 6; ++i) {
    net::ImageUploadRequest up;
    up.features = make_binary(500 + static_cast<std::uint64_t>(i));
    up.image_bytes = 700'000.0 + 1'000.0 * i;
    up.geo = geo_of(i);
    up.thumbnail_bytes = 12'000.0 + 100.0 * i;
    requests.push_back(net::encode(up));

    net::BinaryQueryRequest q;
    q.features = make_binary(500 + static_cast<std::uint64_t>(i));
    q.feature_bytes = 9'000.0 + 10.0 * i;
    requests.push_back(net::encode(q));

    net::FloatUploadRequest fup;
    fup.features = make_float(800 + static_cast<std::uint64_t>(i));
    fup.image_bytes = 650'000.0;
    fup.geo = geo_of(i + 1);
    requests.push_back(net::encode(fup));

    net::FloatQueryRequest fq;
    fq.features = make_float(800 + static_cast<std::uint64_t>(i));
    fq.feature_bytes = 20'000.0;
    requests.push_back(net::encode(fq));

    net::GlobalUploadRequest gup;
    gup.histogram = make_histogram(900 + static_cast<std::uint64_t>(i));
    gup.image_bytes = 710'000.0;
    gup.geo = geo_of(i);
    requests.push_back(net::encode(gup));

    net::GlobalQueryRequest gq;
    gq.histogram = make_histogram(900 + static_cast<std::uint64_t>(i));
    gq.geo = geo_of(i);
    gq.feature_bytes = 256.0;
    requests.push_back(net::encode(gq));

    net::PlainUploadRequest pup;
    pup.image_bytes = 720'000.0;
    pup.geo = geo_of(i + 2);
    requests.push_back(net::encode(pup));
  }
  // One bulk CBRD round over fresh views of the uploaded scenes.
  net::BatchQueryRequest batch;
  for (int i = 0; i < 4; ++i) {
    batch.features.push_back(make_binary(500 + static_cast<std::uint64_t>(i)));
    batch.feature_bytes.push_back(8'500.0);
  }
  requests.push_back(net::encode(batch));
  return requests;
}

void seed_both(cloud::Server& server, Cluster& cluster) {
  for (int i = 0; i < 5; ++i) {
    const auto features = make_binary(100 + static_cast<std::uint64_t>(i));
    server.seed_binary(features, geo_of(i), 11'000.0);
    cluster.seed_binary(features, geo_of(i), 11'000.0);
  }
  for (int i = 0; i < 4; ++i) {
    const auto features = make_float(200 + static_cast<std::uint64_t>(i));
    server.seed_float(features, geo_of(i));
    cluster.seed_float(features, geo_of(i));
  }
  for (int i = 0; i < 3; ++i) {
    const auto histogram = make_histogram(300 + static_cast<std::uint64_t>(i));
    server.seed_global(histogram, geo_of(i));
    cluster.seed_global(histogram, geo_of(i));
  }
}

/// One binary query through query_binary_batch, the entry point both
/// backends share.
template <typename Backend>
idx::QueryResult query_one(Backend& backend,
                           const feat::BinaryFeatures& features,
                           double feature_bytes) {
  return backend.query_binary_batch({{&features, feature_bytes}}).front();
}

void expect_stats_equal(const cloud::ServerStats& a,
                        const cloud::ServerStats& b) {
  EXPECT_EQ(a.images_stored, b.images_stored);
  EXPECT_DOUBLE_EQ(a.image_bytes_received, b.image_bytes_received);
  EXPECT_DOUBLE_EQ(a.feature_bytes_received, b.feature_bytes_received);
  EXPECT_EQ(a.binary_queries, b.binary_queries);
  EXPECT_EQ(a.float_queries, b.float_queries);
  EXPECT_EQ(a.unique_locations, b.unique_locations);
}

class ClusterEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ClusterEquivalence, RepliesMatchSerialDispatchByteForByte) {
  cloud::Server server;
  ClusterOptions options;
  options.shards = GetParam();
  Cluster cluster(options);
  seed_both(server, cluster);

  int step = 0;
  for (const auto& request : workload_requests()) {
    const auto serial = cloud::dispatch(server, request);
    const auto sharded = cluster.handle(request);
    ASSERT_EQ(sharded, serial) << "shards=" << GetParam() << " step=" << step;
    ++step;
  }
  expect_stats_equal(cluster.stats(), server.stats());
}

TEST_P(ClusterEquivalence, DirectPlaneMatchesSerial) {
  cloud::Server server;
  ClusterOptions options;
  options.shards = GetParam();
  Cluster cluster(options);
  seed_both(server, cluster);

  for (int i = 0; i < 5; ++i) {
    const auto query = make_binary(100 + static_cast<std::uint64_t>(i));
    const idx::QueryResult a = query_one(server, query, 9'000.0);
    const idx::QueryResult b = query_one(cluster, query, 9'000.0);
    EXPECT_EQ(b.best_id, a.best_id);
    EXPECT_DOUBLE_EQ(b.max_similarity, a.max_similarity);
    EXPECT_EQ(b.candidates_checked, a.candidates_checked);
    EXPECT_EQ(b.ops, a.ops);
    ASSERT_EQ(b.hits.size(), a.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(b.hits[h].id, a.hits[h].id);
      EXPECT_DOUBLE_EQ(b.hits[h].similarity, a.hits[h].similarity);
    }
  }
  for (int i = 0; i < 4; ++i) {
    const auto query = make_float(200 + static_cast<std::uint64_t>(i));
    const idx::QueryResult a = server.query_float(query, 20'000.0);
    const idx::QueryResult b = cluster.query_float(query, 20'000.0);
    EXPECT_EQ(b.best_id, a.best_id);
    EXPECT_DOUBLE_EQ(b.max_similarity, a.max_similarity);
  }
  for (int i = 0; i < 3; ++i) {
    const auto histogram = make_histogram(300 + static_cast<std::uint64_t>(i));
    EXPECT_DOUBLE_EQ(cluster.query_global(histogram, geo_of(i)),
                     server.query_global(histogram, geo_of(i)));
  }
  expect_stats_equal(cluster.stats(), server.stats());
}

TEST_P(ClusterEquivalence, StoreIdsMatchSerialIdSequence) {
  cloud::Server server;
  ClusterOptions options;
  options.shards = GetParam();
  Cluster cluster(options);
  seed_both(server, cluster);

  for (int i = 0; i < 6; ++i) {
    const auto features = make_binary(600 + static_cast<std::uint64_t>(i));
    cloud::StoreInfo info{700'000.0, geo_of(i), 12'000.0};
    EXPECT_EQ(cluster.store_binary(features, info),
              server.store_binary(features, info));
  }
  for (int i = 0; i < 4; ++i) {
    const auto features = make_float(700 + static_cast<std::uint64_t>(i));
    cloud::StoreInfo info{650'000.0, geo_of(i), 0.0};
    EXPECT_EQ(cluster.store_float(features, info),
              server.store_float(features, info));
  }
}

TEST_P(ClusterEquivalence, ThumbnailFeedbackMatchesSerial) {
  cloud::Server server;
  ClusterOptions options;
  options.shards = GetParam();
  Cluster cluster(options);
  seed_both(server, cluster);

  for (idx::ImageId id = 0; id < 5; ++id) {
    EXPECT_DOUBLE_EQ(cluster.thumbnail_bytes_of(id),
                     server.thumbnail_bytes_of(id));
  }
}

TEST_P(ClusterEquivalence, ErrorRepliesMatchSerial) {
  cloud::Server server;
  ClusterOptions options;
  options.shards = GetParam();
  Cluster cluster(options);

  // Malformed envelope.
  const std::vector<std::uint8_t> garbage{0xFF, 0x01, 0x02};
  EXPECT_EQ(cluster.handle(garbage), cloud::dispatch(server, garbage));
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(cluster.handle(empty), cloud::dispatch(server, empty));

  // A response type is not a request.
  const auto response = net::encode(net::QueryResponse{});
  const auto serial = cloud::dispatch(server, response);
  EXPECT_EQ(cluster.handle(response), serial);
  const auto envelope = net::open_envelope(serial);
  ASSERT_EQ(envelope.type, net::MessageType::kError);
  EXPECT_EQ(net::decode_error(envelope.payload), "unexpected message type");
}

/// Fresh views of the scenes seed_both stores and of scenes it does not:
/// queries whose LSH votes spread over several seeded images, so a reply
/// depends on how many candidates the budget lets through to the rescore.
std::vector<feat::BinaryFeatures> fresh_views() {
  std::vector<feat::BinaryFeatures> views;
  for (const std::uint64_t first : {100, 150}) {
    for (std::uint64_t scene = first; scene < first + 5; ++scene) {
      for (std::uint64_t salt = 1; salt <= 2; ++salt) {
        util::Rng rng(scene * 1000 + salt);
        img::ViewPerturbation pert;
        views.push_back(feat::extract_orb(img::render_view(
            img::SceneSpec{scene, 18, 4}, 200, 150, pert, rng)));
      }
    }
  }
  return views;
}

/// A serial server and a cluster with `shards` shards, built from the same
/// index parameters and seeded alike.
struct SerialAndCluster {
  SerialAndCluster(int shards, const idx::FeatureIndexParams& binary_params,
                   const idx::FloatFeatureIndex::Params& float_params)
      : server(binary_params, float_params),
        cluster([&] {
          ClusterOptions options;
          options.shards = shards;
          options.binary_params = binary_params;
          options.float_params = float_params;
          return options;
        }()) {
    seed_both(server, cluster);
  }
  cloud::Server server;
  Cluster cluster;
};

TEST_P(ClusterEquivalence, BinaryDegenerateBudgetMatchesSerial) {
  // A max_candidates below 1 still rescores one candidate: the index and
  // the cluster merge truncate with the same idx::candidate_budget.
  idx::FeatureIndexParams binary_params;
  binary_params.max_candidates = -1;
  SerialAndCluster both(GetParam(), binary_params, {});
  const std::vector<feat::BinaryFeatures> views = fresh_views();
  for (std::size_t q = 0; q < views.size(); ++q) {
    net::BinaryQueryRequest request;
    request.features = views[q];
    request.feature_bytes = 9'000.0;
    const auto encoded = net::encode(request);
    ASSERT_EQ(both.cluster.handle(encoded),
              cloud::dispatch(both.server, encoded))
        << "shards=" << GetParam() << " q=" << q;
    const idx::QueryResult a = query_one(both.server, views[q], 0.0);
    const idx::QueryResult b = query_one(both.cluster, views[q], 0.0);
    EXPECT_EQ(b.candidates_checked, a.candidates_checked) << "q=" << q;
    EXPECT_EQ(b.ops, a.ops) << "q=" << q;
  }
}

TEST_P(ClusterEquivalence, FloatDegenerateBudgetMatchesSerial) {
  idx::FloatFeatureIndex::Params float_params;
  float_params.max_candidates = -1;
  SerialAndCluster both(GetParam(), {}, float_params);
  int step = 0;
  for (const auto& request : workload_requests()) {
    ASSERT_EQ(both.cluster.handle(request),
              cloud::dispatch(both.server, request))
        << "shards=" << GetParam() << " step=" << step;
    ++step;
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ClusterEquivalence,
                         ::testing::Values(1, 2, 3, 5));

/// The `cloud.dispatch.*` counters one observed run of `serve` records.
template <typename Serve>
std::map<std::string, double> dispatch_counters(Serve serve) {
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(true);
  serve();
  obs::set_enabled(false);
  std::map<std::string, double> out;
  for (const auto& [name, value] :
       obs::MetricsRegistry::global().snapshot().counters) {
    if (name.rfind("cloud.dispatch.", 0) == 0) out[name] = value;
  }
  obs::MetricsRegistry::global().reset();
  return out;
}

TEST(Cluster, DispatchCountsClusterTraffic) {
  // The cluster answers through cloud::dispatch, so cluster traffic is
  // counted exactly like the serial server's: one request per envelope,
  // per-type counters, and wire bytes.
  cloud::Server server;
  ClusterOptions options;
  options.shards = 3;
  options.threads = 2;
  Cluster cluster(options);
  seed_both(server, cluster);
  const auto requests = workload_requests();

  const auto serial = dispatch_counters([&] {
    for (const auto& request : requests) cloud::dispatch(server, request);
  });
  const auto sharded = dispatch_counters([&] {
    for (const auto& request : requests) cluster.handle(request);
  });
  ASSERT_TRUE(sharded.count("cloud.dispatch.requests"));
  EXPECT_EQ(sharded.at("cloud.dispatch.requests"),
            static_cast<double>(requests.size()));
  for (const char* type : {"binary_query", "float_query", "global_query",
                           "image_upload", "float_upload", "global_upload",
                           "plain_upload"}) {
    EXPECT_EQ(sharded.at(std::string("cloud.dispatch.") + type), 6.0) << type;
  }
  EXPECT_EQ(sharded.at("cloud.dispatch.batch_query"), 1.0);
  EXPECT_EQ(sharded, serial);

  // The fleet batcher's entry point counts its coalesced queries too.
  const std::vector<std::vector<std::uint8_t>> queries{requests[1],
                                                       requests.back()};
  const auto coalesced = dispatch_counters(
      [&] { cluster.handle_coalesced(queries); });
  EXPECT_EQ(coalesced.at("cloud.dispatch.requests"), 2.0);
  EXPECT_EQ(coalesced.at("cloud.dispatch.binary_query"), 1.0);
  EXPECT_EQ(coalesced.at("cloud.dispatch.batch_query"), 1.0);
}

TEST_P(ClusterEquivalence, AnnPrunedQueriesMatchSerialExactly) {
  // The ANN shortlist path must preserve the cluster's core contract: the
  // per-image scores are pure (query, image) functions, so any shard count
  // reproduces the serial server's reply — hits, similarities, candidate
  // counts, and op counts all equal.
  idx::FeatureIndexParams binary_params;
  binary_params.ann.enabled = true;
  binary_params.ann.vocabulary.branching = 4;
  binary_params.ann.vocabulary.depth = 2;
  binary_params.ann.vocabulary_sample = 256;
  cloud::Server server(binary_params, {});
  ClusterOptions options;
  options.shards = GetParam();
  options.binary_params = binary_params;
  Cluster cluster(options);
  for (int i = 0; i < 10; ++i) {
    const auto features = make_binary(400 + static_cast<std::uint64_t>(i));
    server.seed_binary(features, geo_of(i), 11'000.0);
    cluster.seed_binary(features, geo_of(i), 11'000.0);
  }
  for (int i = 0; i < 10; ++i) {
    const auto query = make_binary(400 + static_cast<std::uint64_t>(i));
    const idx::QueryResult a = query_one(server, query, 9'000.0);
    const idx::QueryResult b = query_one(cluster, query, 9'000.0);
    EXPECT_EQ(b.best_id, a.best_id) << "shards=" << GetParam() << " q=" << i;
    EXPECT_DOUBLE_EQ(b.max_similarity, a.max_similarity);
    EXPECT_EQ(b.candidates_checked, a.candidates_checked);
    EXPECT_EQ(b.ops, a.ops);
    ASSERT_EQ(b.hits.size(), a.hits.size());
    for (std::size_t h = 0; h < a.hits.size(); ++h) {
      EXPECT_EQ(b.hits[h].id, a.hits[h].id);
      EXPECT_DOUBLE_EQ(b.hits[h].similarity, a.hits[h].similarity);
    }
  }
}

TEST_P(ClusterEquivalence, BatchedBinaryQueriesMatchSerialQueries) {
  ClusterOptions options;
  options.shards = GetParam();
  Cluster serial_cluster(options);
  Cluster batched_cluster(options);
  for (int i = 0; i < 8; ++i) {
    const auto features = make_binary(100 + static_cast<std::uint64_t>(i));
    serial_cluster.seed_binary(features, geo_of(i), 11'000.0);
    batched_cluster.seed_binary(features, geo_of(i), 11'000.0);
  }

  std::vector<feat::BinaryFeatures> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back(make_binary(100 + static_cast<std::uint64_t>(i % 4)));
  }
  std::vector<cloud::BinaryBatchItem> items;
  for (std::size_t q = 0; q < queries.size(); ++q) {
    cloud::BinaryBatchItem item;
    item.features = &queries[q];
    item.feature_bytes = 9'000.0 + 10.0 * static_cast<double>(q);
    item.top_k = 1 + static_cast<int>(q % 3);
    items.push_back(item);
  }

  const std::vector<idx::QueryResult> batched =
      batched_cluster.query_binary_batch(items);
  ASSERT_EQ(batched.size(), items.size());
  for (std::size_t q = 0; q < items.size(); ++q) {
    const idx::QueryResult serial =
        serial_cluster.query_binary_batch({items[q]}).front();
    EXPECT_EQ(batched[q].best_id, serial.best_id);
    EXPECT_DOUBLE_EQ(batched[q].max_similarity, serial.max_similarity);
    EXPECT_EQ(batched[q].candidates_checked, serial.candidates_checked);
    EXPECT_EQ(batched[q].ops, serial.ops);
    ASSERT_EQ(batched[q].hits.size(), serial.hits.size());
    for (std::size_t h = 0; h < serial.hits.size(); ++h) {
      EXPECT_EQ(batched[q].hits[h].id, serial.hits[h].id);
      EXPECT_DOUBLE_EQ(batched[q].hits[h].similarity,
                       serial.hits[h].similarity);
    }
  }
  expect_stats_equal(batched_cluster.stats(), serial_cluster.stats());
}

TEST_P(ClusterEquivalence, CoalescedRepliesMatchPerRequestHandling) {
  ClusterOptions options;
  options.shards = GetParam();
  Cluster serial_cluster(options);
  Cluster coalesced_cluster(options);
  {
    cloud::Server unused;  // seed_both wants a server; keep workloads equal
    seed_both(unused, serial_cluster);
  }
  {
    cloud::Server unused;
    seed_both(unused, coalesced_cluster);
  }

  // A read-only group — the shape the fleet batcher coalesces (mutations
  // break a run).  Binary and bulk-CBRD queries join
  // the shared fan-out; the float query, global query, and malformed
  // envelope take the per-request fallback.  Every reply must match
  // per-request handling byte for byte, in group order.
  std::vector<std::vector<std::uint8_t>> requests;
  for (int i = 0; i < 4; ++i) {
    net::BinaryQueryRequest q;
    q.features = make_binary(100 + static_cast<std::uint64_t>(i));
    q.feature_bytes = 9'000.0 + 10.0 * i;
    requests.push_back(net::encode(q));
  }
  net::BatchQueryRequest bulk;
  for (int i = 0; i < 3; ++i) {
    bulk.features.push_back(make_binary(100 + static_cast<std::uint64_t>(i)));
    bulk.feature_bytes.push_back(8'500.0);
  }
  requests.push_back(net::encode(bulk));
  net::FloatQueryRequest fq;
  fq.features = make_float(200);
  fq.feature_bytes = 20'000.0;
  requests.push_back(net::encode(fq));
  net::GlobalQueryRequest gq;
  gq.histogram = make_histogram(300);
  gq.geo = geo_of(0);
  gq.feature_bytes = 256.0;
  requests.push_back(net::encode(gq));
  requests.push_back({0x42, 0x00, 0x17});  // malformed envelope

  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& request : requests) {
    expected.push_back(serial_cluster.handle(request));
  }
  const auto replies = coalesced_cluster.handle_coalesced(requests);
  ASSERT_EQ(replies.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replies[i], expected[i]) << "request " << i;
  }
  expect_stats_equal(coalesced_cluster.stats(), serial_cluster.stats());
}

TEST_P(ClusterEquivalence, CoalescedMixedGroupMatchesPerRequestHandling) {
  // The group contract holds for any group, not only read-only ones: the
  // whole mixed workload — uploads interleaved with queries of every type,
  // ending in a bulk query — as one coalesced group.  Each query run is
  // answered before the upload that follows it, so every reply and the
  // accounting match per-request handling byte for byte.
  ClusterOptions options;
  options.shards = GetParam();
  Cluster serial_cluster(options);
  Cluster coalesced_cluster(options);
  {
    cloud::Server unused;
    seed_both(unused, serial_cluster);
  }
  {
    cloud::Server unused;
    seed_both(unused, coalesced_cluster);
  }
  const auto requests = workload_requests();
  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& request : requests) {
    expected.push_back(serial_cluster.handle(request));
  }
  const auto replies = coalesced_cluster.handle_coalesced(requests);
  ASSERT_EQ(replies.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(replies[i], expected[i])
        << "shards=" << GetParam() << " request " << i;
  }
  expect_stats_equal(coalesced_cluster.stats(), serial_cluster.stats());
}

/// A single-shard backend whose `fail_at`-th apply across the whole
/// cluster (counted in `applies`, shared by every shard) throws before
/// applying anything — a WAL append that fails on I/O.
class FailOnceBackend final : public ShardBackend {
 public:
  FailOnceBackend(int shard_id, const ShardOptions& options,
                  std::shared_ptr<int> applies, int fail_at)
      : shard_(shard_id, options),
        applies_(std::move(applies)),
        fail_at_(fail_at) {}

  Shard& active() override { return shard_; }
  const Shard& active() const override { return shard_; }
  idx::ImageId apply(WalRecord record) override {
    if (++*applies_ == fail_at_) {
      throw std::runtime_error("injected apply failure");
    }
    return shard_.apply(std::move(record));
  }
  void checkpoint() override { shard_.checkpoint(); }
  bool kill_active() override { return false; }
  BackendResilience resilience() const override { return {}; }

 private:
  Shard shard_;
  std::shared_ptr<int> applies_;
  int fail_at_;
};

TEST_P(ClusterEquivalence, FailedShardApplyLeavesNoTrace) {
  // seed_both applies 12 mutations; the second upload after them fails.
  static constexpr int kFailAt = 14;
  constexpr std::size_t kFailedUpload = 1;
  cloud::Server server;
  ClusterOptions options;
  options.shards = GetParam();
  auto applies = std::make_shared<int>(0);
  options.backend_factory = [applies](int shard_id,
                                      const ShardOptions& shard_options) {
    return std::make_unique<FailOnceBackend>(shard_id, shard_options, applies,
                                             kFailAt);
  };
  Cluster cluster(options);
  seed_both(server, cluster);

  std::vector<std::vector<std::uint8_t>> uploads;
  std::vector<std::vector<std::uint8_t>> queries;
  for (int i = 0; i < 6; ++i) {
    net::ImageUploadRequest up;
    up.features = make_binary(600 + static_cast<std::uint64_t>(i));
    up.image_bytes = 700'000.0 + 1'000.0 * i;
    up.geo = geo_of(i);
    up.thumbnail_bytes = 12'000.0 + 100.0 * i;
    uploads.push_back(net::encode(up));
    queries.push_back(net::encode_binary_query(up.features, idx::kDefaultTopK,
                                               9'000.0));
  }
  // The serial server never sees the failed upload; every other reply —
  // the ids later uploads are given included — must be the same.
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    const auto reply = cluster.handle(uploads[i]);
    if (i == kFailedUpload) {
      const net::Envelope env = net::open_envelope(reply);
      ASSERT_EQ(env.type, net::MessageType::kError);
      EXPECT_EQ(net::decode_error(env.payload), "injected apply failure");
      continue;
    }
    ASSERT_EQ(reply, cloud::dispatch(server, uploads[i])) << "upload " << i;
  }
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(cluster.handle(queries[i]), cloud::dispatch(server, queries[i]))
        << "shards=" << GetParam() << " query " << i;
  }
  expect_stats_equal(cluster.stats(), server.stats());
}

TEST(Cluster, MergedBinaryIndexPreservesGlobalIdOrder) {
  ClusterOptions options;
  options.shards = 3;
  Cluster cluster(options);
  cloud::Server server;
  seed_both(server, cluster);

  const idx::FeatureIndex merged = cluster.merged_binary_index();
  ASSERT_EQ(merged.image_count(), 5u);
  for (idx::ImageId id = 0; id < 5; ++id) {
    const auto& expected = make_binary(100 + static_cast<std::uint64_t>(id));
    ASSERT_EQ(merged.features_of(id).size(), expected.size());
    for (std::size_t d = 0; d < expected.size(); ++d) {
      EXPECT_EQ(merged.features_of(id).descriptors[d],
                expected.descriptors[d]);
    }
    EXPECT_EQ(merged.geo_of(id), geo_of(static_cast<int>(id)));
  }
}

TEST(Cluster, PreloadBinaryMatchesSeededServer) {
  // preload from a merged snapshot == seeding the same entries directly.
  ClusterOptions donor_options;
  donor_options.shards = 2;
  Cluster donor(donor_options);
  for (int i = 0; i < 5; ++i) {
    donor.seed_binary(make_binary(100 + static_cast<std::uint64_t>(i)),
                      geo_of(i), 11'000.0);
  }

  ClusterOptions options;
  options.shards = 4;
  Cluster cluster(options);
  cluster.preload_binary(donor.merged_binary_index());

  cloud::Server server;
  for (int i = 0; i < 5; ++i) {
    server.seed_binary(make_binary(100 + static_cast<std::uint64_t>(i)),
                       geo_of(i));
  }
  for (int i = 0; i < 5; ++i) {
    const auto query = make_binary(100 + static_cast<std::uint64_t>(i));
    const idx::QueryResult a = query_one(server, query, 9'000.0);
    const idx::QueryResult b = query_one(cluster, query, 9'000.0);
    EXPECT_EQ(b.best_id, a.best_id);
    EXPECT_DOUBLE_EQ(b.max_similarity, a.max_similarity);
  }
}

}  // namespace
}  // namespace bees::serve
