// bees_loadgen — fleet load generator: N simulated devices (each with its
// own battery, adaptive knobs, and lossy radio) drive a serve::Cluster
// and the run is summarized as a machine-readable SLO report.
//
// stdout carries exactly the JSON report, which is byte-identical for a
// fixed --seed across repeated runs and across any --workers count (the
// determinism contract of fleet::run_fleet).  Wall-clock measurements and
// a human summary go to stderr.
//
// Usage:
//   bees_loadgen [--seed S] [--devices N] [--duration S] [--epoch S]
//                [--closed-loop] [--rate HZ] [--think S]
//                [--spike-start S] [--spike-duration S] [--spike-mult X]
//                [--batch N] [--set-images N] [--set-locations N]
//                [--width W] [--height H] [--seed-fraction F]
//                [--shards N] [--server-threads N] [--queue-depth N]
//                [--batch-window N] [--service-base S] [--service-per-image S]
//                [--bitrate KBPS] [--loss P] [--retries N] [--backoff S]
//                [--battery PCT] [--no-adapt] [--workers N]
//                [--replicas N] [--relays N] [--relay-chunk BYTES]
//                [--partition B:E[:R]] [--relay-outage B:E[:R]]
//                [--kill-primary E:S]
//                [--progressive] [--scans N] [--cell-bandwidth KBPS]
//                [--satisfaction-slo F]
//                [--slo-p99 S] [--slo-shed-rate F] [--report PATH] [--quiet]
//
//   --devices        fleet size                                (default 64)
//   --duration       offered-load window, virtual seconds      (default 120)
//   --epoch          simulation epoch length                   (default 1)
//   --closed-loop    think-time clients instead of open-loop Poisson
//   --rate           per-device capture rate, Hz (open loop)   (default 0.05)
//   --think          mean think time, s (closed loop)          (default 5)
//   --spike-start    disaster spike start, s; < 0 disables     (default -1)
//   --spike-duration spike length, s                           (default 30)
//   --spike-mult     rate multiplier during the spike          (default 10)
//   --batch          images per capture                        (default 4)
//   --seed-fraction  fraction of the imageset pre-seeded into
//                    the situation index                       (default 0.25)
//   --shards / --server-threads / --queue-depth   serving layer shape
//   --batch-window   max admitted queries coalesced per fan-out (default 1);
//                    requires --server-threads (the window coalesces the
//                    queue those servers drain); replies and every non-batching
//                    report field are byte-identical to batch-window 1
//   --service-base / --service-per-image          virtual service time model
//   --bitrate / --loss / --retries / --backoff    per-device radio
//   --battery        starting battery percentage 1..100        (default 100)
//   --no-adapt       pin EAC/EDR/EAU at full-energy values (BEES-EA)
//   --workers        phase-A worker threads; 0 = hardware      (default 1)
//   --replicas       standby followers per shard; killing a primary
//                    fails over to its most-caught-up follower  (default 0)
//   --relays         edge relays between devices and core; uploads
//                    dedup on content chunks (CARE)             (default 0)
//   --relay-chunk    CARE chunking interval, bytes; requires
//                    --relays                                   (default 4096)
//   --partition      backhaul partition over epochs [B, E), optionally
//                    only relay R; repeatable; requires --relays
//   --relay-outage   relay down over epochs [B, E), optionally only
//                    relay R; repeatable; requires --relays
//   --kill-primary   kill shard S's primary at epoch E; repeatable;
//                    requires --replicas
//   --progressive    ship uploads as progressive scans (v2 codec)
//   --scans          scans per upload, 1..6; requires
//                    --progressive                             (default 4)
//   --cell-bandwidth shared congested-cell uplink, kbps; uploads transit
//                    it scan by scan under the satisfaction scheduler;
//                    requires --progressive                    (default off)
//   --satisfaction-slo  minimum mean satisfaction 0..1; the exit code is
//                    1 when the run ends below it; requires
//                    --cell-bandwidth                          (default off)
//   --slo-p99        p99 latency target, s; with a target set the exit
//                    code is 1 when the SLO verdict fails      (default off)
//   --slo-shed-rate  max tolerated shed fraction 0..1          (default off)
//   --report         also write the JSON report to PATH
//   --quiet          suppress the stderr summary
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "fleet/simulator.hpp"

using namespace bees;

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--seed S] [--devices N] [--duration S] [--epoch S]\n"
         "       [--closed-loop] [--rate HZ] [--think S] [--spike-start S]\n"
         "       [--spike-duration S] [--spike-mult X] [--batch N]\n"
         "       [--set-images N] [--set-locations N] [--width W]\n"
         "       [--height H] [--seed-fraction F] [--shards N]\n"
         "       [--server-threads N] [--queue-depth N] [--batch-window N]\n"
         "       [--service-base S]\n"
         "       [--service-per-image S] [--bitrate KBPS] [--loss P]\n"
         "       [--retries N] [--backoff S] [--battery PCT] [--no-adapt]\n"
         "       [--workers N] [--replicas N] [--relays N]\n"
         "       [--relay-chunk BYTES] [--partition B:E[:R]]\n"
         "       [--relay-outage B:E[:R]] [--kill-primary E:S]\n"
         "       [--progressive] [--scans N] [--cell-bandwidth KBPS]\n"
         "       [--satisfaction-slo F] [--slo-p99 S] [--slo-shed-rate F]\n"
         "       [--report PATH] [--quiet]\n";
  return 2;
}

struct Options {
  fleet::FleetOptions fleet;
  double battery_pct = 100.0;
  std::string report_path;
  bool quiet = false;
  bool server_threads_set = false;
  bool batch_window_set = false;
  bool relay_chunk_set = false;
  bool scans_set = false;
  bool cell_bandwidth_set = false;
  bool satisfaction_slo_set = false;
};

/// "B:E" or "B:E:R" -> an epoch window; returns false on malformed input.
bool parse_window(const std::string& s, fleet::EpochWindow& out) {
  try {
    std::size_t p1 = s.find(':');
    if (p1 == std::string::npos) return false;
    std::size_t p2 = s.find(':', p1 + 1);
    out.begin = std::stoull(s.substr(0, p1));
    out.end = std::stoull(s.substr(p1 + 1, p2 == std::string::npos
                                                ? std::string::npos
                                                : p2 - p1 - 1));
    out.target = p2 == std::string::npos ? -1 : std::stoi(s.substr(p2 + 1));
  } catch (const std::exception&) {
    return false;
  }
  return out.begin < out.end;
}

/// "E:S" -> a primary kill; returns false on malformed input.
bool parse_kill(const std::string& s, fleet::PrimaryKill& out) {
  try {
    const std::size_t p = s.find(':');
    if (p == std::string::npos) return false;
    out.epoch = std::stoull(s.substr(0, p));
    out.shard = std::stoi(s.substr(p + 1));
  } catch (const std::exception&) {
    return false;
  }
  return out.shard >= 0;
}

bool parse(int argc, char** argv, Options& opt) {
  fleet::FleetOptions& f = opt.fleet;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](double& out) {
      if (i + 1 >= argc) return false;
      out = std::stod(argv[++i]);
      return true;
    };
    double v = 0;
    if (arg == "--seed" && next(v)) {
      f.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--devices" && next(v)) {
      f.devices = static_cast<int>(v);
    } else if (arg == "--duration" && next(v)) {
      f.duration_s = v;
    } else if (arg == "--epoch" && next(v)) {
      f.epoch_s = v;
    } else if (arg == "--closed-loop") {
      f.closed_loop = true;
    } else if (arg == "--rate" && next(v)) {
      f.rate_hz = v;
    } else if (arg == "--think" && next(v)) {
      f.think_s = v;
    } else if (arg == "--spike-start" && next(v)) {
      f.spike_start_s = v;
    } else if (arg == "--spike-duration" && next(v)) {
      f.spike_duration_s = v;
    } else if (arg == "--spike-mult" && next(v)) {
      f.spike_multiplier = v;
    } else if (arg == "--batch" && next(v)) {
      f.batch = static_cast<int>(v);
    } else if (arg == "--set-images" && next(v)) {
      f.set_images = static_cast<int>(v);
    } else if (arg == "--set-locations" && next(v)) {
      f.set_locations = static_cast<int>(v);
    } else if (arg == "--width" && next(v)) {
      f.width = static_cast<int>(v);
    } else if (arg == "--height" && next(v)) {
      f.height = static_cast<int>(v);
    } else if (arg == "--seed-fraction" && next(v)) {
      f.seed_fraction = v;
    } else if (arg == "--shards" && next(v)) {
      f.shards = static_cast<int>(v);
    } else if (arg == "--server-threads" && next(v)) {
      f.server_threads = static_cast<int>(v);
      opt.server_threads_set = true;
    } else if (arg == "--queue-depth" && next(v)) {
      f.queue_depth = static_cast<std::size_t>(v);
    } else if (arg == "--batch-window" && next(v)) {
      f.batch_window = static_cast<int>(v);
      opt.batch_window_set = true;
    } else if (arg == "--service-base" && next(v)) {
      f.service_base_s = v;
    } else if (arg == "--service-per-image" && next(v)) {
      f.service_per_image_s = v;
    } else if (arg == "--bitrate" && next(v)) {
      f.bitrate_kbps = v;
    } else if (arg == "--loss" && next(v)) {
      f.loss = v;
    } else if (arg == "--retries" && next(v)) {
      f.retry.max_attempts = static_cast<int>(v);
    } else if (arg == "--backoff" && next(v)) {
      f.retry.backoff_base_s = v;
    } else if (arg == "--battery" && next(v)) {
      opt.battery_pct = v;
    } else if (arg == "--no-adapt") {
      f.adaptive = false;
    } else if (arg == "--workers" && next(v)) {
      f.workers = static_cast<int>(v);
    } else if (arg == "--replicas" && next(v)) {
      f.replicas = static_cast<int>(v);
    } else if (arg == "--relays" && next(v)) {
      f.relays = static_cast<int>(v);
    } else if (arg == "--relay-chunk" && next(v)) {
      f.relay_chunk_size = static_cast<std::uint32_t>(v);
      opt.relay_chunk_set = true;
    } else if (arg == "--partition" && i + 1 < argc) {
      fleet::EpochWindow w;
      if (!parse_window(argv[++i], w)) return false;
      f.partitions.push_back(w);
    } else if (arg == "--relay-outage" && i + 1 < argc) {
      fleet::EpochWindow w;
      if (!parse_window(argv[++i], w)) return false;
      f.relay_outages.push_back(w);
    } else if (arg == "--kill-primary" && i + 1 < argc) {
      fleet::PrimaryKill k;
      if (!parse_kill(argv[++i], k)) return false;
      f.primary_kills.push_back(k);
    } else if (arg == "--progressive") {
      f.progressive = true;
    } else if (arg == "--scans" && next(v)) {
      f.scans = static_cast<int>(v);
      opt.scans_set = true;
    } else if (arg == "--cell-bandwidth" && next(v)) {
      f.cell_bandwidth_kbps = v;
      opt.cell_bandwidth_set = true;
    } else if (arg == "--satisfaction-slo" && next(v)) {
      f.slo_min_satisfaction = v;
      opt.satisfaction_slo_set = true;
    } else if (arg == "--slo-p99" && next(v)) {
      f.slo_p99_s = v;
    } else if (arg == "--slo-shed-rate" && next(v)) {
      f.slo_max_shed_rate = v;
    } else if (arg == "--report" && i + 1 < argc) {
      opt.report_path = argv[++i];
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      return false;
    }
  }
  f.battery_fraction = opt.battery_pct / 100.0;
  return f.devices >= 1 && f.duration_s > 0 && f.epoch_s > 0 &&
         f.rate_hz >= 0 && f.think_s >= 0 && f.batch >= 1 &&
         f.set_images >= 1 && f.set_locations >= 1 && f.width >= 32 &&
         f.height >= 32 && f.seed_fraction >= 0 && f.seed_fraction <= 1 &&
         f.shards >= 1 && f.server_threads >= 1 && f.queue_depth >= 1 &&
         f.batch_window >= 1 &&
         f.bitrate_kbps > 0 && f.loss >= 0 && f.loss <= 1 &&
         f.retry.max_attempts >= 1 && f.retry.backoff_base_s > 0 &&
         opt.battery_pct > 0 && opt.battery_pct <= 100 && f.workers >= 0 &&
         f.replicas >= 0 && f.relays >= 0 && f.relay_chunk_size >= 1 &&
         f.slo_max_shed_rate <= 1 && f.scans >= 1 && f.scans <= 6 &&
         f.cell_bandwidth_kbps >= 0 && f.slo_min_satisfaction <= 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage(argv[0]);
  if (opt.batch_window_set && !opt.server_threads_set) {
    std::cerr << "bees_loadgen: --batch-window requires --server-threads "
                 "(the window coalesces the queue those servers drain)\n";
    return 2;
  }
  if (opt.fleet.relays < 1 &&
      (opt.relay_chunk_set || !opt.fleet.partitions.empty() ||
       !opt.fleet.relay_outages.empty())) {
    std::cerr << "bees_loadgen: --relay-chunk/--partition/--relay-outage "
                 "describe the relay tier; add --relays\n";
    return 2;
  }
  if (!opt.fleet.progressive &&
      (opt.scans_set || opt.cell_bandwidth_set)) {
    std::cerr << "bees_loadgen: --scans/--cell-bandwidth shape the "
                 "progressive plane; add --progressive\n";
    return 2;
  }
  if (opt.satisfaction_slo_set && !opt.cell_bandwidth_set) {
    std::cerr << "bees_loadgen: --satisfaction-slo judges crowded-cell "
                 "delivery; add --cell-bandwidth\n";
    return 2;
  }
  if (!opt.fleet.primary_kills.empty() && opt.fleet.replicas < 1) {
    std::cerr << "bees_loadgen: --kill-primary needs a standby to promote; "
                 "add --replicas\n";
    return 2;
  }
  for (const fleet::PrimaryKill& k : opt.fleet.primary_kills) {
    if (k.shard >= opt.fleet.shards) {
      std::cerr << "bees_loadgen: --kill-primary targets shard " << k.shard
                << " but the cluster has " << opt.fleet.shards << "\n";
      return 2;
    }
  }
  for (const fleet::EpochWindow& w : opt.fleet.partitions) {
    if (w.target >= opt.fleet.relays) {
      std::cerr << "bees_loadgen: --partition targets relay " << w.target
                << " but the tier has " << opt.fleet.relays << "\n";
      return 2;
    }
  }
  for (const fleet::EpochWindow& w : opt.fleet.relay_outages) {
    if (w.target >= opt.fleet.relays) {
      std::cerr << "bees_loadgen: --relay-outage targets relay " << w.target
                << " but the tier has " << opt.fleet.relays << "\n";
      return 2;
    }
  }

  const fleet::FleetResult result = fleet::run_fleet(opt.fleet);
  const std::string json = result.report.to_json();

  std::cout << json;
  if (!opt.report_path.empty()) {
    std::ofstream out(opt.report_path);
    if (!out) {
      std::cerr << "bees_loadgen: cannot write " << opt.report_path << "\n";
      return 2;
    }
    out << json;
  }

  if (!opt.quiet) {
    const fleet::FleetReport& r = result.report;
    std::fprintf(stderr,
                 "fleet: %d devices, %.0fs %s load: offered %llu, served "
                 "%llu, shed %llu (%.2f%%)\n",
                 r.config.devices, r.config.duration_s,
                 r.config.closed_loop ? "closed-loop" : "open-loop",
                 static_cast<unsigned long long>(r.totals.offered),
                 static_cast<unsigned long long>(r.totals.served),
                 static_cast<unsigned long long>(r.totals.shed),
                 100.0 * r.totals.shed_rate());
    std::fprintf(stderr,
                 "latency: p50 %.3fs  p90 %.3fs  p99 %.3fs  (%llu requests)\n",
                 r.latency_all.p50_s, r.latency_all.p90_s, r.latency_all.p99_s,
                 static_cast<unsigned long long>(r.latency_all.count));
    std::fprintf(stderr,
                 "real cluster: %zu handles in %.3fs wall (%.1f req/s); "
                 "run wall %.3fs\n",
                 result.real_handles, result.serve_wall_seconds,
                 result.serve_wall_seconds > 0
                     ? static_cast<double>(result.real_handles) /
                           result.serve_wall_seconds
                     : 0.0,
                 result.wall_seconds);
    if (opt.fleet.replicas > 0 || opt.fleet.relays > 0) {
      std::fprintf(stderr,
                   "resilience: %llu failovers (ship lag max %llu); relay "
                   "backhaul %llu B of %llu B ingress (saved %llu B), "
                   "held %llu, rejected %llu\n",
                   static_cast<unsigned long long>(r.resilience.failovers),
                   static_cast<unsigned long long>(r.resilience.ship_lag_max),
                   static_cast<unsigned long long>(
                       r.resilience.relay_backhaul_bytes),
                   static_cast<unsigned long long>(
                       r.resilience.relay_ingress_bytes),
                   static_cast<unsigned long long>(
                       r.resilience.relay_dedup_bytes_saved),
                   static_cast<unsigned long long>(r.resilience.relay_held),
                   static_cast<unsigned long long>(r.resilience.relay_rejects));
    }
    if (r.satisfaction.enabled) {
      std::fprintf(stderr,
                   "satisfaction: %llu uploads through a %.0f kbps cell, "
                   "mean ttfu %.3fs, mean satisfaction %.3f%s\n",
                   static_cast<unsigned long long>(r.satisfaction.jobs),
                   r.satisfaction.cell_bandwidth_kbps,
                   r.satisfaction.mean_ttfu_s,
                   r.satisfaction.mean_satisfaction,
                   opt.satisfaction_slo_set
                       ? (r.satisfaction.ok ? " (SLO OK)" : " (SLO VIOLATED)")
                       : "");
    }
    if (opt.fleet.slo_p99_s > 0 || opt.fleet.slo_max_shed_rate >= 0) {
      std::fprintf(stderr, "slo: %s\n", r.slo.ok() ? "OK" : "VIOLATED");
    }
  }

  const bool gated =
      opt.fleet.slo_p99_s > 0 || opt.fleet.slo_max_shed_rate >= 0;
  if (gated && !result.report.slo.ok()) return 1;
  if (opt.satisfaction_slo_set && !result.report.satisfaction.ok) return 1;
  return 0;
}
