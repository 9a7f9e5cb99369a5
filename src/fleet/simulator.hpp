// The fleet simulator: N simulated phones driving the serving layer under
// a configurable load shape, producing a deterministic SLO report.
//
// Execution is an epoch-barrier parallel discrete-event simulation.
// Virtual time advances in fixed epochs of `epoch_s`:
//
//   Phase A (parallel): devices are partitioned into static contiguous
//   chunks (one per worker, each with a private wl::ImageStore) and each
//   device advances through the epoch independently — reacting to replies
//   delivered at the previous barrier, capturing batches, extracting
//   features under its battery-driven knobs, and transmitting over its
//   private lossy channel.  Devices share no mutable state in this phase,
//   so the outcome is a pure function of the inputs regardless of worker
//   count or scheduling.
//
//   Barrier (sequential): all attempts delivered during the epoch are
//   sorted by (arrival time, device, seq) and resolved in that order.
//   Admission and queueing happen in *virtual* time against the
//   QueueModel (mirroring serve::Cluster's gate: c = server_threads
//   servers, shed at queue_depth in flight) — the real cluster's gate is
//   disabled, because real thread scheduling would make shed decisions
//   nondeterministic.  Admitted requests then execute against the real
//   serve::Cluster for their replies: contiguous runs of (read-only)
//   queries run in parallel across the pool, uploads apply serially in
//   arrival order, so every query sees exactly the index state its
//   virtual-time position implies.  Latency (virtual completion − virtual
//   enqueue) is recorded here, sequentially, in sorted order.
//
// A device reacts to a reply at max(completion time, start of the epoch
// after the barrier that resolved it) — a conservative quantization of at
// most one epoch, applied identically for every worker count.
//
// The report (FleetResult::report) contains only virtual-time quantities
// and is byte-identical for a fixed seed across runs and worker counts;
// real wall-clock measurements sit beside it in FleetResult.
#pragma once

#include <cstdint>
#include <vector>

#include "fleet/report.hpp"
#include "net/transport.hpp"

namespace bees::fleet {

/// A half-open range of epochs [begin, end) during which something is
/// broken: a relay's backhaul partitioned, or a relay down entirely.
struct EpochWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  int target = -1;  ///< Relay index; -1 = every relay.
};

/// Kill the primary of `shard` at the start of epoch `epoch` (failover to
/// its most-caught-up follower; requires replicas >= 1).
struct PrimaryKill {
  std::uint64_t epoch = 0;
  int shard = 0;
};

struct FleetOptions {
  std::uint64_t seed = 42;
  int devices = 64;
  /// Offered-load window (virtual seconds); in-flight work then drains.
  double duration_s = 120.0;
  double epoch_s = 1.0;

  // Load shape.
  bool closed_loop = false;   ///< Think-time clients vs. open-loop Poisson.
  double rate_hz = 0.05;      ///< Per-device capture rate (open loop).
  double think_s = 5.0;       ///< Mean think time between chains (closed).
  double spike_start_s = -1.0;  ///< Disaster spike start; < 0 disables.
  double spike_duration_s = 30.0;
  double spike_multiplier = 10.0;
  int batch = 4;  ///< Images per capture.
  int top_k = 4;

  // Shared imageset (paris-like: heavy-tailed location popularity).
  int set_images = 96;
  int set_locations = 12;
  int width = 96;
  int height = 72;
  /// Fraction of the imageset pre-seeded into the situation index.
  double seed_fraction = 0.25;

  // Serving layer.
  int shards = 1;
  int server_threads = 1;     ///< Virtual servers; real cluster threads.
  std::size_t queue_depth = 64;  ///< Admission bound (virtual gate).
  /// Coalescing window: admitted query runs are grouped into batches of at
  /// most this many requests *in virtual arrival order* and served through
  /// Cluster::handle_coalesced, so each batch shares one fan-out.  The
  /// grouping is deterministic (a pure function of the virtual timeline,
  /// never of worker scheduling) and replies are byte-identical to
  /// batch_window = 1, so only the report's `batching` stats and config
  /// echo differ.
  int batch_window = 1;
  /// Virtual service time: base + per_image * images covered.
  double service_base_s = 0.02;
  double service_per_image_s = 0.02;

  // Radio (per device; each device forks its own channel seed).
  double bitrate_kbps = 256.0;
  double loss = 0.0;
  net::RetryPolicy retry;

  // Device energy state.
  bool adaptive = true;
  double battery_fraction = 1.0;

  // Resilience scenario (DESIGN §14).  Kills fire at epoch starts and
  // relay traffic is accounted in virtual arrival order, so the report —
  // including its `resilience` section — stays byte-identical across
  // worker counts for a fixed seed and schedule.
  int replicas = 0;  ///< Standby followers per shard (0 = unreplicated).
  int relays = 0;    ///< Edge relays between devices and core (0 = direct).
  std::uint32_t relay_chunk_size = 4096;  ///< CARE chunking interval.
  std::vector<EpochWindow> partitions;     ///< Backhaul down; relays hold.
  std::vector<EpochWindow> relay_outages;  ///< Relay down; devices retry.
  std::vector<PrimaryKill> primary_kills;

  // Crowded-cell progressive delivery (DESIGN §15).  With `progressive`
  // set, image uploads are modelled as `scans` progressive scans (spectral
  // selection + successive approximation; see imaging/progressive.hpp);
  // with a positive `cell_bandwidth_kbps` every upload additionally
  // transits one shared congested cell scan by scan under the
  // satisfaction-driven scheduler (sched::CellScheduler) before reaching
  // the relay/admission path.  Queries (small feature payloads) bypass the
  // cell.  Cell transit runs entirely at the sequential barrier in virtual
  // time, so the report — including its `satisfaction` section — stays
  // byte-identical across worker counts; with `progressive` off the report
  // is byte-identical to earlier revisions.
  bool progressive = false;
  int scans = 4;                       ///< Scans per upload, 1..img::kMaxScans.
  double cell_bandwidth_kbps = 0.0;    ///< Shared cell uplink; 0 disables.
  double slo_min_satisfaction = -1.0;  ///< Mean-satisfaction target; < 0 off.

  /// Phase-A worker threads (0 = hardware concurrency).  Never affects
  /// the report bytes.
  int workers = 1;

  // SLO targets for the report's verdict (see SloVerdict).
  double slo_p99_s = 0.0;
  double slo_max_shed_rate = -1.0;
};

struct FleetResult {
  FleetReport report;
  double wall_seconds = 0.0;        ///< Whole run, real time.
  double serve_wall_seconds = 0.0;  ///< Real cluster execution, real time.
  std::size_t real_handles = 0;     ///< Requests the real cluster served.
};

/// Runs the fleet simulation.  Throws std::invalid_argument on nonsense
/// options (devices < 1, duration <= 0, epoch <= 0, ...).
FleetResult run_fleet(const FleetOptions& options);

}  // namespace bees::fleet
