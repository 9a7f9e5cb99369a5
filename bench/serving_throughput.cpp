// Serving-cluster throughput: encoded CBRD queries against serve::Cluster
// at (shards, server threads) = (1,1), (2,2), (4,4), driven by concurrent
// client threads.  Reports queries/second and the speedup over the 1/1
// serial configuration.  Every request takes the production path:
// admission gate, execution permit, cloud::dispatch, and the cluster's
// binary fan-out.  The cluster serves each request on its caller's
// thread, so the client threads are the serving threads.
//
// The full run repeats every configuration 5 times, interleaved so a drift
// in host speed spreads over all of them, and reports the median qps with
// its min/max; the speedup is the ratio of medians.  The scaling bar (4/4
// must reach >= 3x the 1/1 rate) is only *enforced* on machines with at
// least 4 hardware threads — on fewer cores the fan-out cannot physically
// scale and the number is reported as informational.  When BEES_BENCH_JSON
// names a directory the measured rows are written to
// <dir>/BENCH_serving.json alongside the core count that produced them.
//
// Every timed run follows one untimed pass of the same requests through the
// same cluster on the same client threads, so the timing starts from warm
// threads and caches.  The clients meet at a barrier before each pass; its
// completion step runs once all of them have arrived, resets the request
// counter and reads the clock before it releases them, so the timed window
// holds serving only.  Clients claim requests from that shared counter, so
// no client is left holding a costlier fixed share while the others idle.
//
// Usage: serving_throughput [--smoke]   (--smoke cuts the request count and
// runs each configuration once so the perfsmoke ctest label can verify the
// bench end-to-end in ~a second)
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "features/orb.hpp"
#include "imaging/synth.hpp"
#include "net/protocol.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bees;

feat::BinaryFeatures make_binary(std::uint64_t seed) {
  util::Rng rng(seed);
  img::ViewPerturbation pert;
  return feat::extract_orb(
      img::render_view(img::SceneSpec{seed, 18, 4}, 200, 150, pert, rng));
}

struct Config {
  int shards;
  int threads;
};

/// Queries per second of one timed run of `config`, after one untimed
/// pass over the same requests.
double run_config(const Config& config,
                  const std::vector<feat::BinaryFeatures>& seeds,
                  const std::vector<std::vector<std::uint8_t>>& requests,
                  int client_threads) {
  serve::ClusterOptions options;
  options.shards = config.shards;
  options.threads = config.threads;
  serve::Cluster cluster(options);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    cluster.seed_binary(seeds[i],
                        {2.29 + 0.01 * static_cast<double>(i % 3), 48.85,
                         true},
                        11'000.0);
  }

  std::atomic<std::size_t> next{0};
  const auto serve_pass = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < requests.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      cluster.handle(requests[i]);
    }
  };
  // The second release's clock reading starts the timed pass.
  std::chrono::steady_clock::time_point start;
  std::barrier release(client_threads, [&]() noexcept {
    next.store(0, std::memory_order_relaxed);
    start = std::chrono::steady_clock::now();
  });
  // The untimed pass first: the threads' first requests pay for page
  // faults and cold caches, which at the smoke's 32 requests is a large
  // share of the timed window.
  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(client_threads));
  for (int c = 0; c < client_threads; ++c) {
    clients.emplace_back([&] {
      for (int pass = 0; pass < 2; ++pass) {
        release.arrive_and_wait();
        serve_pass();
      }
    });
  }
  for (auto& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds > 0.0 ? static_cast<double>(requests.size()) / seconds : 0.0;
}

int main_impl(bool smoke) {
  const int kSeeds = bench::sized(16, 48);
  const int kRequests = smoke ? 32 : bench::sized(256, 1024);
  const int kReps = smoke ? 1 : 5;
  const unsigned cores = std::thread::hardware_concurrency();
  util::print_banner(std::cout, "Serving throughput: sharded cluster scaling");
  std::cout << "hardware threads: " << cores << ", requests per config: "
            << kRequests << ", reps: " << kReps << "\n\n";

  std::vector<feat::BinaryFeatures> seeds;
  for (int i = 0; i < kSeeds; ++i) {
    seeds.push_back(make_binary(4'000 + static_cast<std::uint64_t>(i)));
  }
  std::vector<std::vector<std::uint8_t>> requests;
  for (int i = 0; i < kRequests; ++i) {
    requests.push_back(net::encode_binary_query(
        seeds[static_cast<std::size_t>(i % kSeeds)], idx::kDefaultTopK,
        9'000.0));
  }

  const std::vector<Config> configs{{1, 1}, {2, 2}, {4, 4}};
  std::vector<std::vector<double>> qps(configs.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      // Client-side concurrency matches the cluster's permit count (the 1/1
      // baseline is the serial reference: one client, one permit).
      qps[c].push_back(run_config(configs[c], seeds, requests,
                                  std::max(1, configs[c].threads)));
    }
  }
  std::vector<bench::RepSpread> spreads;
  for (const std::vector<double>& runs : qps) {
    spreads.push_back(bench::spread_of(runs));
  }
  const auto speedup = [&](std::size_t c) {
    return spreads.front().median > 0.0
               ? spreads[c].median / spreads.front().median
               : 1.0;
  };

  util::Table table({"shards", "threads", "requests", "reps", "median qps",
                     "min qps", "max qps", "speedup vs 1/1"});
  bench::BenchJson json("serving");
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const Config& config = configs[c];
    const bench::RepSpread& spread = spreads[c];
    table.add_row({std::to_string(config.shards),
                   std::to_string(config.threads), std::to_string(kRequests),
                   std::to_string(spread.reps),
                   util::Table::num(spread.median, 1),
                   util::Table::num(spread.min, 1),
                   util::Table::num(spread.max, 1),
                   util::Table::num(speedup(c), 2) + "x"});
    json.add(std::to_string(config.shards) + "shards/" +
                 std::to_string(config.threads) + "threads",
             {{"shards", config.shards},
              {"threads", config.threads},
              {"requests", kRequests},
              {"reps", spread.reps},
              {"qps_median", spread.median},
              {"qps_min", spread.min},
              {"qps_max", spread.max},
              {"speedup", speedup(c)}});
  }
  table.print(std::cout);

  const double scaling = speedup(configs.size() - 1);
  if (cores >= 4) {
    std::cout << "\nScaling bar: 4 shards / 4 threads reached "
              << util::Table::num(scaling, 2) << "x (required >= 3x)\n";
    if (scaling < 3.0) {
      std::cerr << "FAIL: 4/4 configuration did not reach 3x the 1/1 rate\n";
      return 1;
    }
  } else {
    std::cout << "\nScaling bar: informational only on " << cores
              << " hardware thread(s) — 4/4 reached "
              << util::Table::num(scaling, 2)
              << "x (>= 3x is required on machines with 4+ cores)\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return main_impl(smoke);
}
