// Fleet phase: fleet::run_fleet with kLoadThreads phase-A workers on a
// damaged network — edge relays with CARE dedup, one standby per shard,
// channel loss, a disaster spike, one backhaul partition, one primary
// kill, and a crowded cell carrying progressive scans.  Measured: each
// run's process CPU time and wall time (FleetResult::wall_seconds), one run
// per round, and the report's virtual time to first usable scan.  The
// virtual-time report is byte-identical for a fixed seed whatever the
// worker count, so every round must reproduce the first round's report,
// and a small reference fleet at a fixed seed, run with one worker and
// with kLoadThreads, must reproduce the digest recorded with the benchmark.
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fleet/simulator.hpp"
#include "obs/json.hpp"
#include "util/hash.hpp"

namespace perfbench {
namespace {

using namespace bees;

fleet::FleetOptions disaster_options(std::uint64_t seed, bool redundant,
                                     int devices, double duration_s,
                                     int workers) {
  fleet::FleetOptions f;
  f.seed = seed;
  f.devices = devices;
  f.duration_s = duration_s;
  f.rate_hz = 0.16;
  f.spike_start_s = duration_s / 3.0;
  f.spike_duration_s = duration_s / 6.0;
  f.spike_multiplier = 5.0;
  // Redundant: devices crowd a few locations and a quarter of the set is
  // already indexed.  Distinct: spread-out locations, nothing pre-indexed.
  f.set_images = 64;
  f.set_locations = redundant ? 8 : 48;
  f.seed_fraction = redundant ? 0.25 : 0.0;
  f.shards = 4;
  f.server_threads = 4;
  f.queue_depth = 16;
  f.loss = 0.05;
  f.replicas = 1;
  f.relays = 2;
  const auto epoch = [&](double frac) {
    return static_cast<std::uint64_t>(duration_s * frac);
  };
  f.partitions.push_back({epoch(0.4), epoch(0.55), -1});
  f.primary_kills.push_back({epoch(0.5), 1});
  f.progressive = true;
  f.scans = 4;
  f.cell_bandwidth_kbps = 256.0;
  f.workers = workers;
  return f;
}

std::string digest_of(const fleet::FleetReport& report) {
  const std::string json = report.to_json();
  const std::uint64_t h = util::content_hash64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size()));
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

class FleetPhase final : public Phase {
 public:
  FleetPhase(const Args& args, const Shape& shape, Results& results)
      : options_(disaster_options(mix_seed(args.seed, 200), shape.redundant,
                                  48, 24.0, kLoadThreads)),
        results_(results) {
    // Reference fleet: fixed seed and shape, one worker vs kLoadThreads.
    fleet::FleetOptions ref =
        disaster_options(args.fleet_ref_seed, true, 16, 20.0, 1);
    const std::string serial = digest_of(fleet::run_fleet(ref).report);
    ref.workers = kLoadThreads;
    const std::string parallel = digest_of(fleet::run_fleet(ref).report);
    results_.check("fleet_report_worker_invariant", serial == parallel,
                   serial + " vs " + parallel);
    results_.check("fleet_report_digest", serial == args.fleet_ref_digest,
                   "digest " + serial + ", recorded " + args.fleet_ref_digest);
  }

  void round() override {
    const double c0 = process_cpu_s();
    fleet::FleetResult run = fleet::run_fleet(options_);
    cpu_s_.push_back(process_cpu_s() - c0);
    wall_.push_back(run.wall_seconds);
    serve_wall_.push_back(run.serve_wall_seconds);
    const std::string digest = digest_of(run.report);
    if (digests_.empty()) first_ = std::move(run);
    digests_.push_back(digest);
  }

  void finish() override {
    bool repeats = true;
    for (const std::string& d : digests_) repeats = repeats && d == digests_[0];
    results_.check("fleet_report_repeats", repeats,
                   std::to_string(digests_.size()) + " runs, digest " +
                       digests_[0]);
    const fleet::FleetReport& r = first_.report;
    results_.check("fleet_failover_and_drain",
                   r.resilience.failovers == 1 &&
                       r.resilience.relay_held == r.resilience.relay_drained,
                   std::to_string(r.resilience.failovers) + " failovers, " +
                       std::to_string(r.resilience.relay_held) + " held / " +
                       std::to_string(r.resilience.relay_drained) +
                       " drained");

    const double wall = median(wall_);
    const double serve = median(serve_wall_);
    // Mean time from an upload's enqueue to its first usable scan, in
    // virtual seconds: what responders wait for in the disaster scenario.
    results_.metric("fleet_ttfu_s", r.satisfaction.mean_ttfu_s, "s");
    results_.metric("fleet_cpu_s", median(cpu_s_), "s");
    // Every round runs the same fleet, so the fastest round is the one the
    // host disturbed least.
    results_.metric("fleet_wall_s", least(wall_), "s");
    results_.metric("fleet.serve_wall_s", serve, "s");
    results_.metric("fleet.device_wall_s", wall - serve, "s");
    results_.metric("fleet.real_handles",
                    static_cast<double>(first_.real_handles), "count");
    results_.metric("fleet.shed_rate", r.totals.shed_rate(), "fraction");
    results_.metric("relay.backhaul_bytes",
                    static_cast<double>(r.resilience.relay_backhaul_bytes),
                    "B");
    results_.metric("relay.dedup_bytes_saved",
                    static_cast<double>(r.resilience.relay_dedup_bytes_saved),
                    "B");
    results_.metric("fleet.replica_ship_records",
                    static_cast<double>(r.resilience.ship_records), "count");
    results_.metric("sched.cell_bytes", r.satisfaction.cell_bytes, "B");
    note("fleet: " + std::to_string(digests_.size()) + " runs, median wall " +
         obs::json_number(wall) + " s (serve " + obs::json_number(serve) +
         " s), offered " + std::to_string(r.totals.offered) +
         ", virtual shed rate " + obs::json_number(r.totals.shed_rate()));
  }

 private:
  const fleet::FleetOptions options_;
  Results& results_;

  std::vector<double> cpu_s_;
  std::vector<double> wall_;
  std::vector<double> serve_wall_;
  std::vector<std::string> digests_;
  fleet::FleetResult first_;
};

}  // namespace

std::unique_ptr<Phase> make_fleet_phase(const Args& args, const Shape& shape,
                                        Results& results) {
  return std::make_unique<FleetPhase>(args, shape, results);
}

}  // namespace perfbench
