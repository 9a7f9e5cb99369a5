// Fleet SLO bench: the load generator drives the real serve::Cluster at
// (shards, server threads) = (1,1) and (4,4) under the same offered fleet
// load, and the *real* serving throughput (requests handled per wall
// second at the epoch barriers) is compared across the two shapes.  The
// deterministic virtual report supplies the SLO columns (p99 latency,
// shed rate) for each row.
//
// Each shape sets batch_window = threads, so the scaled run also
// exercises the coalesced (batched rescore) query plane; the virtual
// report columns are identical either way — only the real wall clock and
// the report's batching stats move.
//
// The full run repeats each shape 5 times, interleaved, and reports the
// median real qps with its min/max; the speedup is the ratio of medians.
// The scaling bar (4/4 must reach >= 3x the 1/1 real rate) is only
// *enforced* on machines with at least 4 hardware threads; on fewer cores
// the fan-out cannot physically scale and the ratio is informational.
// When BEES_BENCH_JSON names a directory the rows are written to
// <dir>/BENCH_loadgen.json alongside the core count that produced them.
//
// Usage: loadgen_slo [--smoke]   (--smoke shrinks the fleet and duration
// and runs each shape once so the perfsmoke ctest label can verify the
// bench end-to-end quickly)
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "fleet/simulator.hpp"
#include "util/table.hpp"

namespace {

using namespace bees;

struct Shape {
  int shards;
  int threads;
};

/// One shape's runs: the deterministic report (the same every run) and
/// each run's real serving rate.
struct Row {
  Shape shape;
  fleet::FleetResult result;
  std::vector<double> real_qps;
};

fleet::FleetOptions base_options(bool smoke) {
  fleet::FleetOptions o;
  o.seed = 2024;
  o.devices = smoke ? 8 : bench::sized(32, 128);
  o.duration_s = smoke ? 10.0 : bench::sized(40, 120);
  o.rate_hz = 0.2;
  o.batch = 3;
  o.set_images = smoke ? 12 : bench::sized(24, 64);
  o.set_locations = 6;
  o.width = 64;
  o.height = 48;
  o.queue_depth = 64;
  o.service_base_s = 0.05;
  o.service_per_image_s = 0.02;
  return o;
}

/// Runs `shape` once more into `row`.
void run_shape(const fleet::FleetOptions& base, Row& row) {
  fleet::FleetOptions o = base;
  o.shards = row.shape.shards;
  o.server_threads = row.shape.threads;
  o.batch_window = row.shape.threads;
  // Barrier query fan-out matches the cluster's parallelism; phase-A
  // device work rides the same pool.  The report stays deterministic for
  // any worker count — only the wall clock moves.
  o.workers = row.shape.threads;
  row.result = fleet::run_fleet(o);
  row.real_qps.push_back(row.result.serve_wall_seconds > 0.0
                             ? static_cast<double>(row.result.real_handles) /
                                   row.result.serve_wall_seconds
                             : 0.0);
}

int main_impl(bool smoke) {
  const unsigned cores = std::thread::hardware_concurrency();
  util::print_banner(std::cout, "Fleet loadgen: cluster shape vs SLO");
  const fleet::FleetOptions base = base_options(smoke);
  std::cout << "hardware threads: " << cores << ", devices: " << base.devices
            << ", duration: " << base.duration_s << "s (virtual)\n\n";

  const int reps = smoke ? 1 : 5;
  std::vector<Row> rows{{{1, 1}, {}, {}}, {{4, 4}, {}, {}}};
  for (int rep = 0; rep < reps; ++rep) {
    for (Row& row : rows) run_shape(base, row);
  }
  const double base_qps = bench::spread_of(rows.front().real_qps).median;
  const auto speedup = [&](const Row& row) {
    return base_qps > 0.0 ? bench::spread_of(row.real_qps).median / base_qps
                          : 1.0;
  };

  util::Table table({"shards", "threads", "served", "shed rate", "p99 (s)",
                     "reps", "median real qps", "min", "max",
                     "speedup vs 1/1"});
  bench::BenchJson json("loadgen");
  for (const Row& row : rows) {
    const fleet::FleetReport& r = row.result.report;
    const bench::RepSpread spread = bench::spread_of(row.real_qps);
    table.add_row({std::to_string(row.shape.shards),
                   std::to_string(row.shape.threads),
                   std::to_string(r.totals.served),
                   util::Table::num(r.totals.shed_rate(), 4),
                   util::Table::num(r.latency_all.p99_s, 3),
                   std::to_string(spread.reps),
                   util::Table::num(spread.median, 1),
                   util::Table::num(spread.min, 1),
                   util::Table::num(spread.max, 1),
                   util::Table::num(speedup(row), 2) + "x"});
    json.add(std::to_string(row.shape.shards) + "shards/" +
                 std::to_string(row.shape.threads) + "threads",
             {{"shards", row.shape.shards},
              {"threads", row.shape.threads},
              {"served", r.totals.served},
              {"shed_rate", r.totals.shed_rate()},
              {"p99_s", r.latency_all.p99_s},
              {"real_handles", row.result.real_handles},
              {"reps", spread.reps},
              {"real_qps_median", spread.median},
              {"real_qps_min", spread.min},
              {"real_qps_max", spread.max},
              {"speedup", speedup(row)}});
  }
  table.print(std::cout);

  const double scaling = speedup(rows.back());
  if (cores >= 4) {
    std::cout << "\nScaling bar: 4 shards / 4 threads reached "
              << util::Table::num(scaling, 2) << "x (required >= 3x)\n";
    if (scaling < 3.0) {
      std::cerr << "FAIL: 4/4 fleet run did not reach 3x the 1/1 rate\n";
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
