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
// The scaling bar (4/4 must reach >= 3x the 1/1 real rate) is only
// *enforced* on machines with at least 4 hardware threads; on fewer cores
// the fan-out cannot physically scale and the ratio is informational.
// When BEES_BENCH_JSON names a directory the rows are written to
// <dir>/BENCH_loadgen.json alongside the core count that produced them.
//
// Usage: loadgen_slo [--smoke]   (--smoke shrinks the fleet and duration
// so the perfsmoke ctest label can verify the bench end-to-end quickly)
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

struct Row {
  Shape shape;
  fleet::FleetResult result;
  double real_qps = 0.0;
  double speedup = 1.0;
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

Row run_shape(const Shape& shape, const fleet::FleetOptions& base) {
  fleet::FleetOptions o = base;
  o.shards = shape.shards;
  o.server_threads = shape.threads;
  o.batch_window = shape.threads;
  // Barrier query fan-out matches the cluster's parallelism; phase-A
  // device work rides the same pool.  The report stays deterministic for
  // any worker count — only the wall clock moves.
  o.workers = shape.threads;
  Row row;
  row.shape = shape;
  row.result = fleet::run_fleet(o);
  row.real_qps = row.result.serve_wall_seconds > 0.0
                     ? static_cast<double>(row.result.real_handles) /
                           row.result.serve_wall_seconds
                     : 0.0;
  return row;
}

int main_impl(bool smoke) {
  const unsigned cores = std::thread::hardware_concurrency();
  util::print_banner(std::cout, "Fleet loadgen: cluster shape vs SLO");
  const fleet::FleetOptions base = base_options(smoke);
  std::cout << "hardware threads: " << cores << ", devices: " << base.devices
            << ", duration: " << base.duration_s << "s (virtual)\n\n";

  const std::vector<Shape> shapes{{1, 1}, {4, 4}};
  std::vector<Row> rows;
  for (const Shape& shape : shapes) {
    rows.push_back(run_shape(shape, base));
    if (rows.front().real_qps > 0.0) {
      rows.back().speedup = rows.back().real_qps / rows.front().real_qps;
    }
  }

  util::Table table({"shards", "threads", "served", "shed rate", "p99 (s)",
                     "real qps", "speedup vs 1/1"});
  for (const Row& row : rows) {
    const fleet::FleetReport& r = row.result.report;
    table.add_row({std::to_string(row.shape.shards),
                   std::to_string(row.shape.threads),
                   std::to_string(r.totals.served),
                   util::Table::num(r.totals.shed_rate(), 4),
                   util::Table::num(r.latency_all.p99_s, 3),
                   util::Table::num(row.real_qps, 1),
                   util::Table::num(row.speedup, 2) + "x"});
  }
  table.print(std::cout);

  bench::BenchJson json("loadgen");
  for (const Row& row : rows) {
    const fleet::FleetReport& r = row.result.report;
    json.add(std::to_string(row.shape.shards) + "shards/" +
                 std::to_string(row.shape.threads) + "threads",
             {{"shards", row.shape.shards},
              {"threads", row.shape.threads},
              {"served", r.totals.served},
              {"shed_rate", r.totals.shed_rate()},
              {"p99_s", r.latency_all.p99_s},
              {"real_handles", row.result.real_handles},
              {"serve_wall_seconds", row.result.serve_wall_seconds},
              {"real_qps", row.real_qps},
              {"speedup", row.speedup}});
  }

  const double scaling = rows.back().speedup;
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
