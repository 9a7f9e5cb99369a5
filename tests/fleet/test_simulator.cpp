// Fleet simulator behavior: the determinism contract (byte-identical
// reports across runs and worker counts — the subsystem's acceptance
// criterion), overload shedding with client backoff, closed-loop chains,
// precision accounting against ground truth, and battery depletion.
#include "fleet/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace bees::fleet {
namespace {

/// Small but busy fleet: loss, a disaster spike, and a shallow queue so
/// the retry/shed paths all run.  Tiny images keep extraction cheap.
FleetOptions busy_options() {
  FleetOptions o;
  o.seed = 1234;
  o.devices = 12;
  o.duration_s = 20.0;
  o.epoch_s = 1.0;
  o.rate_hz = 0.1;
  o.spike_start_s = 5.0;
  o.spike_duration_s = 5.0;
  o.spike_multiplier = 15.0;
  o.batch = 3;
  o.set_images = 18;
  o.set_locations = 6;
  o.width = 64;
  o.height = 48;
  o.queue_depth = 2;
  o.service_base_s = 0.3;
  o.service_per_image_s = 0.1;
  o.loss = 0.05;
  o.workers = 1;
  return o;
}

TEST(FleetSimulator, SameSeedProducesIdenticalReports) {
  const FleetOptions o = busy_options();
  const std::string a = run_fleet(o).report.to_json();
  const std::string b = run_fleet(o).report.to_json();
  EXPECT_EQ(a, b);
}

TEST(FleetSimulator, ReportIsInvariantAcrossWorkerCounts) {
  // The acceptance criterion: same seed => byte-identical report for any
  // worker-thread count, including with shedding, loss, and retries live.
  FleetOptions o = busy_options();
  o.workers = 1;
  const std::string w1 = run_fleet(o).report.to_json();
  o.workers = 8;
  const std::string w8 = run_fleet(o).report.to_json();
  EXPECT_EQ(w1, w8);
}

TEST(FleetSimulator, BatchedReportInvariantAcrossWorkerCounts) {
  // Coalescing groups query runs by pure index arithmetic over the virtual
  // arrival order, so the determinism contract survives batch_window > 1.
  FleetOptions o = busy_options();
  o.batch_window = 3;
  o.workers = 1;
  const std::string w1 = run_fleet(o).report.to_json();
  o.workers = 8;
  const std::string w8 = run_fleet(o).report.to_json();
  EXPECT_EQ(w1, w8);

  // Free workers claim a run's groups, so which worker serves which group
  // follows the wall clock; the report must not.  A deep queue and 4
  // virtual servers admit the spike, so its barrier runs hold more groups
  // than workers.
  o = busy_options();
  o.queue_depth = 64;
  o.server_threads = 4;
  o.batch_window = 2;
  o.workers = 1;
  const std::string deep1 = run_fleet(o).report.to_json();
  o.workers = 2;
  const std::string deep2 = run_fleet(o).report.to_json();
  EXPECT_EQ(deep1, deep2);
}

TEST(FleetSimulator, BatchWindowOnlyMovesBatchingStats) {
  // Coalescing is an amortization, never a semantic change: everything the
  // report measures about serving — totals, latency, precision, energy,
  // the SLO verdict — is identical for batch_window 1 and 4.  Only the
  // batching section (and its config echo) moves.
  FleetOptions o = busy_options();
  o.batch_window = 1;
  const FleetReport serial = run_fleet(o).report;
  o.batch_window = 4;
  const FleetReport batched = run_fleet(o).report;

  EXPECT_EQ(serial.totals.to_json(o.duration_s),
            batched.totals.to_json(o.duration_s));
  EXPECT_EQ(serial.latency_all.to_json(), batched.latency_all.to_json());
  EXPECT_EQ(serial.latency_query.to_json(),
            batched.latency_query.to_json());
  EXPECT_EQ(serial.precision.to_json(), batched.precision.to_json());
  EXPECT_EQ(serial.slo.to_json(), batched.slo.to_json());

  EXPECT_EQ(serial.config.batch_window, 1);
  EXPECT_EQ(batched.config.batch_window, 4);
  // Same queries, fewer fan-outs: coalescing strictly reduces batches.
  EXPECT_GT(serial.batching.batches, batched.batching.batches);
  EXPECT_GT(batched.batching.batch_size_p99, 1.0);
  EXPECT_DOUBLE_EQ(serial.batching.batch_size_p50, 1.0);
}

TEST(FleetSimulator, DifferentSeedsDiverge) {
  FleetOptions o = busy_options();
  const std::string a = run_fleet(o).report.to_json();
  o.seed = 4321;
  const std::string b = run_fleet(o).report.to_json();
  EXPECT_NE(a, b);
}

TEST(FleetSimulator, SpikeOverloadShedsAndClientsBackOff) {
  const FleetResult r = run_fleet(busy_options());
  const Totals& t = r.report.totals;
  EXPECT_GT(t.offered, 0u);
  EXPECT_GT(t.served, 0u);
  EXPECT_GT(t.shed, 0u);              // the spike overwhelms depth 2
  EXPECT_GT(t.shed_retries, 0u);      // shed replies are retried ...
  EXPECT_GT(t.backoff_s, 0.0);        // ... after a backoff wait
  EXPECT_GT(t.shed_bytes, 0.0);
  EXPECT_GT(t.shed_rate(), 0.0);
  EXPECT_LT(t.shed_rate(), 1.0);
  // Latency percentiles are populated and ordered.
  const LatencySummary& lat = r.report.latency_all;
  EXPECT_GT(lat.count, 0u);
  EXPECT_GT(lat.p50_s, 0.0);
  EXPECT_LE(lat.p50_s, lat.p90_s);
  EXPECT_LE(lat.p90_s, lat.p99_s);
  EXPECT_LE(lat.p99_s, lat.max_s);
}

TEST(FleetSimulator, SloVerdictGatesOnTargets) {
  FleetOptions o = busy_options();
  o.slo_max_shed_rate = 0.0;  // the spike guarantees sheds: must fail
  const FleetResult r = run_fleet(o);
  EXPECT_FALSE(r.report.slo.shed_ok);
  EXPECT_FALSE(r.report.slo.ok());

  o.slo_max_shed_rate = 1.0;  // tolerate anything: must pass
  o.slo_p99_s = 1e9;
  const FleetResult r2 = run_fleet(o);
  EXPECT_TRUE(r2.report.slo.ok());
}

TEST(FleetSimulator, ClosedLoopClientsRunChains) {
  FleetOptions o;
  o.seed = 7;
  o.devices = 8;
  o.duration_s = 30.0;
  o.closed_loop = true;
  o.think_s = 2.0;
  o.batch = 2;
  o.set_images = 12;
  o.set_locations = 4;
  o.width = 64;
  o.height = 48;
  const FleetResult r = run_fleet(o);
  const Totals& t = r.report.totals;
  EXPECT_GT(t.captures, 0u);
  EXPECT_GT(t.served, 0u);
  // A closed-loop client never holds more than one chain: offered load
  // self-limits instead of overwhelming the queue.
  EXPECT_EQ(t.shed, 0u);
  EXPECT_EQ(r.report.config.closed_loop, true);
}

TEST(FleetSimulator, PrecisionInputsTrackGroundTruth) {
  FleetOptions o;
  o.seed = 11;
  o.devices = 8;
  o.duration_s = 25.0;
  o.rate_hz = 0.15;
  o.batch = 3;
  o.set_images = 16;
  o.set_locations = 4;
  o.width = 64;
  o.height = 48;
  o.seed_fraction = 1.0;  // whole imageset pre-indexed: most are redundant
  const FleetResult r = run_fleet(o);
  const PrecisionInputs& p = r.report.precision;
  EXPECT_GT(p.redundant_images, 0u);
  EXPECT_EQ(p.redundant_correct + p.redundant_wrong, p.redundant_images);
  EXPECT_GT(p.precision(), 0.5);  // matches overwhelmingly truthful
  EXPECT_LE(p.precision(), 1.0);
  // With everything already indexed, few uploads should be needed.
  EXPECT_LT(r.report.totals.uploads, r.report.totals.queries);
}

TEST(FleetSimulator, NearEmptyBatteriesDeplete) {
  FleetOptions o;
  o.seed = 5;
  o.devices = 6;
  o.duration_s = 30.0;
  o.rate_hz = 0.2;
  o.batch = 2;
  o.set_images = 12;
  o.set_locations = 4;
  o.width = 64;
  o.height = 48;
  // ~21.5 J of charge vs ~24 J of baseline draw over the run: every
  // device dies mid-run and stops capturing.
  o.battery_fraction = 0.0005;
  const FleetResult r = run_fleet(o);
  EXPECT_EQ(r.report.totals.depleted_devices,
            static_cast<std::uint64_t>(o.devices));
  EXPECT_EQ(r.report.mean_battery_fraction, 0.0);
  EXPECT_GT(r.report.energy.idle_j, 0.0);
}

TEST(FleetSimulator, EnergyBucketsArePopulated) {
  const FleetResult r = run_fleet(busy_options());
  const energy::EnergyBreakdown& e = r.report.energy;
  EXPECT_GT(e.extraction_j, 0.0);   // ORB on every capture
  EXPECT_GT(e.feature_tx_j, 0.0);   // delivered batch queries
  EXPECT_GT(e.retransmit_tx_j, 0.0);  // 5% loss burns airtime
  EXPECT_GT(e.rx_j, 0.0);           // replies received
  EXPECT_GT(e.idle_j, 0.0);
  EXPECT_GT(e.total(), e.active_total());
}

TEST(FleetSimulator, ReportJsonCarriesEverySection) {
  const std::string json = run_fleet(busy_options()).report.to_json();
  for (const char* key :
       {"\"loadgen\"", "\"totals\"", "\"latency\"", "\"energy\"",
        "\"precision_inputs\"", "\"slo\"", "\"p50_s\"", "\"p90_s\"",
        "\"p99_s\"", "\"shed_rate\"", "\"throughput_rps\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

TEST(FleetSimulator, RejectsDegenerateOptions) {
  FleetOptions o;
  o.devices = 0;
  EXPECT_THROW(run_fleet(o), std::invalid_argument);
  o = FleetOptions{};
  o.duration_s = 0.0;
  EXPECT_THROW(run_fleet(o), std::invalid_argument);
  o = FleetOptions{};
  o.epoch_s = -1.0;
  EXPECT_THROW(run_fleet(o), std::invalid_argument);
  o = FleetOptions{};
  o.queue_depth = 0;
  EXPECT_THROW(run_fleet(o), std::invalid_argument);
  o = FleetOptions{};
  o.batch_window = 0;
  EXPECT_THROW(run_fleet(o), std::invalid_argument);
}

}  // namespace
}  // namespace bees::fleet
