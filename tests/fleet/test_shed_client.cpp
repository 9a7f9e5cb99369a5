// Client-observed admission shedding: the serving cluster's shed reply
// must decode as a *retryable* error on the client side, and the gate must
// admit again once the overload clears.  Fleet devices back shed requests
// off and resend them (FleetSimulator.SpikeOverloadShedsAndClientsBackOff).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "features/orb.hpp"
#include "fleet/client.hpp"
#include "imaging/synth.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"

namespace bees::fleet {
namespace {

feat::BinaryFeatures make_binary(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

std::vector<std::uint8_t> make_query(std::uint64_t seed) {
  return net::encode_binary_query(make_binary(seed), idx::kDefaultTopK,
                                  9'000.0);
}

TEST(ShedClient, RealShedReplyClassifiesAsRetryable) {
  // queue_depth 0 makes the real gate shed deterministically: every
  // request produces the exact reply an overloaded cluster sends.
  serve::ClusterOptions options;
  options.shards = 1;
  options.threads = 1;
  options.queue_depth = 0;
  serve::Cluster cluster(options);

  const auto reply = cluster.handle(make_query(100));
  EXPECT_EQ(classify_reply(reply), ReplyStatus::kShed);
  EXPECT_EQ(cluster.shed_count(), 1u);
}

TEST(ShedClient, ServedAndMalformedRepliesClassifyApart) {
  serve::Cluster cluster;
  cluster.seed_binary(make_binary(100), {2.3, 48.86, true}, 11'000.0);
  EXPECT_EQ(classify_reply(cluster.handle(make_query(100))),
            ReplyStatus::kOk);
  // A non-shed encoded error is terminal for the client.
  EXPECT_EQ(classify_reply(net::encode_error("malformed request")),
            ReplyStatus::kError);
  // Undecodable bytes are terminal too, never retried.
  EXPECT_EQ(classify_reply({0x01, 0x02, 0x03}), ReplyStatus::kError);
}

TEST(ShedClient, SustainedOverloadShedsDecodeRetryableEverywhere) {
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 12;

  serve::ClusterOptions options;
  options.shards = 2;
  options.threads = 1;
  options.queue_depth = 1;
  serve::Cluster cluster(options);
  for (int i = 0; i < 4; ++i) {
    cluster.seed_binary(make_binary(100 + static_cast<std::uint64_t>(i)),
                        {2.3, 48.86, true}, 11'000.0);
  }

  std::atomic<int> ok{0};
  std::atomic<int> shed{0};
  std::atomic<int> terminal{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int q = 0; q < kRequestsPerClient; ++q) {
        const auto reply = cluster.handle(
            make_query(100 + static_cast<std::uint64_t>((c + q) % 4)));
        switch (classify_reply(reply)) {
          case ReplyStatus::kOk: ok.fetch_add(1); break;
          case ReplyStatus::kShed: shed.fetch_add(1); break;
          case ReplyStatus::kError: terminal.fetch_add(1); break;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Under sustained overload every reply is either a served answer or the
  // retryable shed error — never a terminal one — and the client-observed
  // shed count matches the gate's own accounting exactly.
  EXPECT_EQ(terminal.load(), 0);
  EXPECT_EQ(ok.load() + shed.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(cluster.shed_count(), static_cast<std::size_t>(shed.load()));
  // The overload is transient: once the burst drains, the gate admits.
  EXPECT_EQ(classify_reply(cluster.handle(make_query(100))),
            ReplyStatus::kOk);
}

}  // namespace
}  // namespace bees::fleet
