// Concurrency behaviour of the serving cluster: it serves on its callers'
// threads and starts none of its own, parallel clients get the same bytes
// the serial path produces — also while every shard fails over — mixed
// read/write traffic keeps the accounting consistent, and the admission
// gate sheds with an encoded error instead of throwing.  Sizes are kept
// small: these tests also run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <latch>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cloud/rpc.hpp"
#include "cloud/server.hpp"
#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "net/protocol.hpp"
#include "replica/replication.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"

namespace bees::serve {
namespace {

feat::BinaryFeatures make_binary(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

idx::GeoTag geo_of(int i) {
  return {2.29 + 0.01 * (i % 3), 48.85 + 0.002 * (i % 3), true};
}

// Threads of this process, one /proc/self/task entry each.
std::ptrdiff_t task_count() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator{});
}

TEST(ClusterConcurrent, ClusterStartsNoThreads) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  const std::ptrdiff_t before = task_count();
  ClusterOptions options;
  options.shards = 4;
  options.threads = 4;
  Cluster cluster(options);
  for (int i = 0; i < 4; ++i) {
    cluster.seed_binary(make_binary(100 + static_cast<std::uint64_t>(i)),
                        geo_of(i), 11'000.0);
  }
  for (int q = 0; q < 4; ++q) {
    const auto reply = cluster.handle(net::encode_binary_query(
        make_binary(100 + static_cast<std::uint64_t>(q)), idx::kDefaultTopK,
        9'000.0));
    EXPECT_EQ(net::open_envelope(reply).type,
              net::MessageType::kQueryResponse);
  }
  EXPECT_EQ(task_count(), before);
}

TEST(ClusterConcurrent, ParallelClientsGetSerialReplies) {
  constexpr int kSeeds = 6;
  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 6;

  cloud::Server server;
  ClusterOptions options;
  options.shards = 4;
  options.threads = 4;
  Cluster cluster(options);
  for (int i = 0; i < kSeeds; ++i) {
    const auto features = make_binary(100 + static_cast<std::uint64_t>(i));
    server.seed_binary(features, geo_of(i), 11'000.0);
    cluster.seed_binary(features, geo_of(i), 11'000.0);
  }

  // Queries are read-only, so the serial replies computed up front stay the
  // expected answer no matter how client threads interleave.
  std::vector<std::vector<std::uint8_t>> requests;
  std::vector<std::vector<std::uint8_t>> expected;
  for (int q = 0; q < kClients * kQueriesPerClient; ++q) {
    requests.push_back(net::encode_binary_query(
        make_binary(100 + static_cast<std::uint64_t>(q % kSeeds)),
        idx::kDefaultTopK, 9'000.0));
    expected.push_back(cloud::dispatch(server, requests.back()));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const int i = c * kQueriesPerClient + q;
        if (cluster.handle(requests[static_cast<std::size_t>(i)]) !=
            expected[static_cast<std::size_t>(i)]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cluster.stats().binary_queries,
            static_cast<std::size_t>(kClients * kQueriesPerClient));
}

TEST(ClusterConcurrent, MixedTrafficKeepsAccountingConsistent) {
  constexpr int kSeeds = 4;
  constexpr int kWriters = 2;
  constexpr int kStoresPerWriter = 5;
  constexpr int kReaders = 2;
  constexpr int kQueriesPerReader = 8;

  ClusterOptions options;
  options.shards = 3;
  options.threads = 4;
  Cluster cluster(options);
  for (int i = 0; i < kSeeds; ++i) {
    cluster.seed_binary(make_binary(100 + static_cast<std::uint64_t>(i)),
                        geo_of(i), 11'000.0);
  }

  std::mutex ids_mutex;
  std::vector<idx::ImageId> stored_ids;
  std::atomic<int> bad_replies{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kStoresPerWriter; ++i) {
        const auto features = make_binary(
            1'000 + static_cast<std::uint64_t>(w * kStoresPerWriter + i));
        const idx::ImageId id = cluster.store_binary(
            features, {700'000.0, geo_of(i), 12'000.0});
        std::lock_guard<std::mutex> lock(ids_mutex);
        stored_ids.push_back(id);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const auto reply = cluster.handle(net::encode_binary_query(
            make_binary(100 + static_cast<std::uint64_t>((r + q) % kSeeds)),
            idx::kDefaultTopK, 9'000.0));
        try {
          const auto envelope = net::open_envelope(reply);
          if (envelope.type != net::MessageType::kQueryResponse) {
            bad_replies.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (...) {
          bad_replies.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad_replies.load(), 0);
  // Every store got a distinct, dense global id after the seeds.
  const std::set<idx::ImageId> unique(stored_ids.begin(), stored_ids.end());
  ASSERT_EQ(unique.size(), static_cast<std::size_t>(kWriters * kStoresPerWriter));
  EXPECT_EQ(*unique.begin(), static_cast<idx::ImageId>(kSeeds));
  EXPECT_EQ(*unique.rbegin(), static_cast<idx::ImageId>(
                                  kSeeds + kWriters * kStoresPerWriter - 1));

  const cloud::ServerStats stats = cluster.stats();
  EXPECT_EQ(stats.images_stored,
            static_cast<std::size_t>(kWriters * kStoresPerWriter));
  EXPECT_EQ(stats.binary_queries,
            static_cast<std::size_t>(kReaders * kQueriesPerReader));

  // Every stored image is findable with an exact-duplicate query.
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kStoresPerWriter; ++i) {
      const auto features = make_binary(
          1'000 + static_cast<std::uint64_t>(w * kStoresPerWriter + i));
      const idx::QueryResult r =
          cluster.query_binary_batch({{&features, 9'000.0}}).front();
      EXPECT_DOUBLE_EQ(r.max_similarity, 1.0);
    }
  }
}

TEST(ClusterConcurrent, SharedReadersWithExplicitPoolsMatchSerial) {
  constexpr int kSeeds = 8;
  constexpr int kStores = 6;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 6;

  // Every shard instance, standby included, owns a 4-thread rescore pool,
  // so concurrent readers of one shard share its index's pool.
  ClusterOptions options;
  options.shards = 4;
  options.threads = 4;
  options.backend_factory = replica::make_replicated_factory(1);
  options.binary_params.rescore_threads = 4;
  Cluster cluster(options);
  cloud::Server server;
  for (int i = 0; i < kSeeds; ++i) {
    const auto features = make_binary(100 + static_cast<std::uint64_t>(i));
    server.seed_binary(features, geo_of(i), 11'000.0);
    cluster.seed_binary(features, geo_of(i), 11'000.0);
  }

  std::vector<std::vector<std::uint8_t>> uploads;
  for (int i = 0; i < kStores; ++i) {
    net::ImageUploadRequest up;
    up.features = make_binary(1'000 + static_cast<std::uint64_t>(i));
    up.image_bytes = 700'000.0 + 1'000.0 * i;
    up.geo = geo_of(i);
    up.thumbnail_bytes = 12'000.0 + 100.0 * i;
    uploads.push_back(net::encode(up));
  }
  // Queries re-find the seeds, the images the writer stores, and nothing.
  std::vector<std::vector<std::uint8_t>> queries;
  for (int q = 0; q < kReaders * kQueriesPerReader; ++q) {
    const std::uint64_t seed =
        q % 3 == 0   ? 100 + static_cast<std::uint64_t>(q % kSeeds)
        : q % 3 == 1 ? 1'000 + static_cast<std::uint64_t>(q % kStores)
                     : 5'000 + static_cast<std::uint64_t>(q);
    queries.push_back(net::encode_binary_query(make_binary(seed),
                                               idx::kDefaultTopK, 9'000.0));
  }
  // Each reader thread sends its own share of the queries.
  const auto read_concurrently = [&](const auto& check_reply) {
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        for (int k = 0; k < kQueriesPerReader; ++k) {
          const std::size_t q =
              static_cast<std::size_t>(r * kQueriesPerReader + k);
          check_reply(q, cluster.handle(queries[q]));
        }
      });
    }
    for (auto& t : readers) t.join();
  };

  // Phase 1: readers only.  Nothing changes the state, so each reply must
  // be the serial server's reply to the same query.
  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& query : queries) {
    expected.push_back(cloud::dispatch(server, query));
  }
  std::atomic<int> mismatches{0};
  read_concurrently([&](std::size_t q, const auto& reply) {
    if (reply != expected[q]) {
      mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(mismatches.load(), 0);

  // Phase 2: the same readers while one writer stores images.  A reply may
  // see any prefix of the stores, so each must only be a query response.
  std::atomic<int> bad_replies{0};
  std::vector<std::vector<std::uint8_t>> acks;
  std::thread writer([&] {
    for (const auto& upload : uploads) acks.push_back(cluster.handle(upload));
  });
  read_concurrently([&](std::size_t, const auto& reply) {
    try {
      if (net::open_envelope(reply).type != net::MessageType::kQueryResponse) {
        bad_replies.fetch_add(1, std::memory_order_relaxed);
      }
    } catch (...) {
      bad_replies.fetch_add(1, std::memory_order_relaxed);
    }
  });
  writer.join();
  EXPECT_EQ(bad_replies.load(), 0);

  // Afterwards the cluster answers as a serial server that stored the same
  // images in the same global-id order.
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    EXPECT_EQ(acks[i], cloud::dispatch(server, uploads[i])) << "upload " << i;
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(cluster.handle(queries[q]), cloud::dispatch(server, queries[q]))
        << "query " << q;
  }
}

TEST(ClusterConcurrent, QueriesRacingFailoverGetSerialReplies) {
  constexpr int kSeeds = 8;
  constexpr int kReaders = 3;
  constexpr int kQueries = 12;

  // One standby per shard.  The seeds' ship frames are still queued when
  // the kills drain the standbys and promote them, and a query's phase-1
  // local ids, read from a primary, are rescored on its successor.
  ClusterOptions options;
  options.shards = 4;
  options.threads = 4;
  options.backend_factory = replica::make_replicated_factory(1);
  Cluster cluster(options);
  cloud::Server server;
  for (int i = 0; i < kSeeds; ++i) {
    const auto features = make_binary(100 + static_cast<std::uint64_t>(i));
    server.seed_binary(features, geo_of(i), 11'000.0);
    cluster.seed_binary(features, geo_of(i), 11'000.0);
  }
  // Queries re-find the seeds and find nothing, alternately.
  std::vector<std::vector<std::uint8_t>> queries;
  std::vector<std::vector<std::uint8_t>> expected;
  for (int q = 0; q < kQueries; ++q) {
    const std::uint64_t seed =
        q % 2 == 0 ? 100 + static_cast<std::uint64_t>(q % kSeeds)
                   : 5'000 + static_cast<std::uint64_t>(q);
    queries.push_back(net::encode_binary_query(make_binary(seed),
                                               idx::kDefaultTopK, 9'000.0));
    expected.push_back(cloud::dispatch(server, queries.back()));
  }

  // Readers and the killing test thread start together; each reader sends
  // every query at least once and keeps sending until every shard failed
  // over.
  std::latch start(kReaders + 1);
  std::atomic<bool> kills_done{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      start.arrive_and_wait();
      for (std::size_t k = 0; k < queries.size() || !kills_done.load(); ++k) {
        const std::size_t q =
            (static_cast<std::size_t>(r) + k) % queries.size();
        if (cluster.handle(queries[q]) != expected[q]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  start.arrive_and_wait();
  for (int s = 0; s < cluster.shard_count(); ++s) {
    EXPECT_TRUE(cluster.kill_primary(s)) << "shard " << s;
  }
  kills_done.store(true);
  for (auto& t : readers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cluster.resilience().failovers, 4u);
}

TEST(ClusterConcurrent, ZeroQueueDepthShedsEveryRequest) {
  ClusterOptions options;
  options.shards = 1;
  options.threads = 1;
  options.queue_depth = 0;
  Cluster cluster(options);
  cluster.seed_binary(make_binary(100), geo_of(0), 11'000.0);

  const auto request = net::encode_binary_query(make_binary(100),
                                                idx::kDefaultTopK, 9'000.0);
  for (int i = 0; i < 3; ++i) {
    const auto reply = cluster.handle(request);
    const auto envelope = net::open_envelope(reply);
    ASSERT_EQ(envelope.type, net::MessageType::kError);
    EXPECT_EQ(net::decode_error(envelope.payload),
              "server overloaded: request shed");
  }
  EXPECT_EQ(cluster.shed_count(), 3u);
  // Shed requests never reach the shards: no query was accounted.
  EXPECT_EQ(cluster.stats().binary_queries, 0u);
}

TEST(ClusterConcurrent, OverloadedClusterShedsCleanlyUnderPressure) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 8;

  ClusterOptions options;
  options.shards = 2;
  options.threads = 1;
  options.queue_depth = 1;
  Cluster cluster(options);
  for (int i = 0; i < 4; ++i) {
    cluster.seed_binary(make_binary(100 + static_cast<std::uint64_t>(i)),
                        geo_of(i), 11'000.0);
  }

  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> other{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kRequestsPerClient; ++q) {
        const auto reply = cluster.handle(net::encode_binary_query(
            make_binary(100 + static_cast<std::uint64_t>((c + q) % 4)),
            idx::kDefaultTopK, 9'000.0));
        const auto envelope = net::open_envelope(reply);
        if (envelope.type == net::MessageType::kQueryResponse) {
          ok.fetch_add(1, std::memory_order_relaxed);
        } else if (envelope.type == net::MessageType::kError &&
                   net::decode_error(envelope.payload) ==
                       "server overloaded: request shed") {
          shed.fetch_add(1, std::memory_order_relaxed);
        } else {
          other.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(cluster.shed_count(), static_cast<std::size_t>(shed.load()));
  EXPECT_EQ(cluster.stats().binary_queries,
            static_cast<std::size_t>(ok.load()));
}

}  // namespace
}  // namespace bees::serve
