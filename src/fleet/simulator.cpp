#include "fleet/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cloud/server.hpp"
#include "fleet/device.hpp"
#include "fleet/queue_model.hpp"
#include "imaging/progressive.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "relay/relay.hpp"
#include "replica/replication.hpp"
#include "sched/cell.hpp"
#include "sched/satisfaction.hpp"
#include "serve/cluster.hpp"
#include "util/byte_io.hpp"
#include "util/thread_pool.hpp"
#include "workload/image_store.hpp"
#include "workload/imageset.hpp"

namespace bees::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void validate(const FleetOptions& o) {
  if (o.devices < 1) throw std::invalid_argument("fleet: devices < 1");
  if (o.duration_s <= 0.0) throw std::invalid_argument("fleet: duration <= 0");
  if (o.epoch_s <= 0.0) throw std::invalid_argument("fleet: epoch <= 0");
  if (o.batch < 1) throw std::invalid_argument("fleet: batch < 1");
  if (o.set_images < 1) throw std::invalid_argument("fleet: set_images < 1");
  if (o.shards < 1) throw std::invalid_argument("fleet: shards < 1");
  if (o.server_threads < 1) {
    throw std::invalid_argument("fleet: server_threads < 1");
  }
  if (o.queue_depth < 1) throw std::invalid_argument("fleet: queue_depth < 1");
  if (o.batch_window < 1) {
    throw std::invalid_argument("fleet: batch_window < 1");
  }
  if (o.bitrate_kbps <= 0.0) {
    throw std::invalid_argument("fleet: bitrate <= 0");
  }
  if (o.replicas < 0) throw std::invalid_argument("fleet: replicas < 0");
  if (o.relays < 0) throw std::invalid_argument("fleet: relays < 0");
  if (o.relay_chunk_size == 0) {
    throw std::invalid_argument("fleet: relay_chunk_size == 0");
  }
  if (o.progressive && (o.scans < 1 || o.scans > img::kMaxScans)) {
    throw std::invalid_argument("fleet: scans out of range");
  }
  if (o.cell_bandwidth_kbps < 0.0) {
    throw std::invalid_argument("fleet: cell bandwidth < 0");
  }
  if (o.cell_bandwidth_kbps > 0.0 && !o.progressive) {
    throw std::invalid_argument("fleet: cell bandwidth without progressive");
  }
  if (o.slo_min_satisfaction >= 0.0 && o.cell_bandwidth_kbps <= 0.0) {
    throw std::invalid_argument(
        "fleet: satisfaction SLO without a cell bandwidth");
  }
  const auto check_windows = [&](const std::vector<EpochWindow>& windows,
                                 const char* what) {
    if (!windows.empty() && o.relays < 1) {
      throw std::invalid_argument(std::string("fleet: ") + what +
                                  " without relays");
    }
    for (const EpochWindow& w : windows) {
      if (w.begin >= w.end) {
        throw std::invalid_argument(std::string("fleet: empty ") + what +
                                    " window");
      }
      if (w.target < -1 || w.target >= o.relays) {
        throw std::invalid_argument(std::string("fleet: ") + what +
                                    " targets a missing relay");
      }
    }
  };
  check_windows(o.partitions, "partition");
  check_windows(o.relay_outages, "relay outage");
  for (const PrimaryKill& k : o.primary_kills) {
    if (o.replicas < 1) {
      throw std::invalid_argument("fleet: primary kill without replicas");
    }
    if (k.shard < 0 || k.shard >= o.shards) {
      throw std::invalid_argument("fleet: primary kill targets a missing shard");
    }
  }
}

/// Does any window in `windows` cover (relay, epoch)?
bool window_hits(const std::vector<EpochWindow>& windows, int relay,
                 std::uint64_t epoch) {
  for (const EpochWindow& w : windows) {
    if (epoch < w.begin || epoch >= w.end) continue;
    if (w.target == -1 || w.target == relay) return true;
  }
  return false;
}

/// A barrier-resolved reply waiting for its delivery epoch.
struct FutureReply {
  int device = 0;
  Reply reply;
  double reaction_s = 0.0;
};

}  // namespace

FleetResult run_fleet(const FleetOptions& o) {
  validate(o);
  const auto wall_start = Clock::now();
  const double E = o.epoch_s;

  // --- Shared world: imageset, serving cluster, ground truth. ---
  const wl::Imageset set =
      wl::make_paris_like(o.set_images, std::max(1, o.set_locations),
                          wl::GeoBox{}, o.width, o.height, o.seed ^ 0x5e7f1ee7ULL);

  serve::ClusterOptions copts;
  copts.shards = o.shards;
  copts.threads = o.server_threads;
  // The real gate stays out of the way: admission is resolved in virtual
  // time by the QueueModel, so real scheduling never decides a shed.
  copts.queue_depth = std::size_t{1} << 20;
  if (o.replicas > 0) {
    copts.backend_factory = replica::make_replicated_factory(o.replicas);
  }
  serve::Cluster cluster(copts);

  // Edge-relay tier (optional).  Relays are driven entirely by the virtual
  // clock: outage/partition windows are epoch ranges, holds drain at epoch
  // starts, and backhaul accounting happens in virtual arrival order
  // during the sequential barrier — never in phase A.
  std::unique_ptr<relay::RelayTier> relay_tier;
  if (o.relays > 0) {
    relay_tier =
        std::make_unique<relay::RelayTier>(o.relays, o.relay_chunk_size);
  }
  std::uint64_t relay_rejects = 0;

  // Crowded cell (optional).  Every upload transits one shared congested
  // cell scan by scan under the satisfaction scheduler before reaching the
  // relay/admission path.  Per-image scan shapes — byte fractions and
  // marginal utilities of each scan — are precomputed here from the
  // imageset's progressive encodings (as-shot variant) and scaled to each
  // upload's modelled wire bytes at submit time, so the barrier never
  // encodes pixels.
  const bool cell_enabled = o.progressive && o.cell_bandwidth_kbps > 0.0;
  struct ScanShape {
    std::vector<double> fraction;  ///< Scan bytes / stream bytes.
    std::vector<double> utility;   ///< Marginal satisfaction, sums to 1.
  };
  std::vector<ScanShape> scan_shapes;
  std::unique_ptr<sched::CellScheduler> cell;
  if (cell_enabled) {
    cell = std::make_unique<sched::CellScheduler>(
        sched::CellPolicy::kSatisfaction,
        o.cell_bandwidth_kbps * 1000.0 / 8.0);
    wl::ImageStore shape_store;
    scan_shapes.reserve(set.images.size());
    for (const wl::ImageSpec& spec : set.images) {
      const img::ProgressiveStream& s =
          shape_store.original_progressive_payload(spec, o.scans);
      ScanShape shape;
      const double total = static_cast<double>(s.bytes.size());
      std::size_t prev = 0;
      for (const std::size_t end : s.scan_ends) {
        shape.fraction.push_back(static_cast<double>(end - prev) / total);
        prev = end;
      }
      shape.utility = sched::marginal_utilities(s.mse_after_scan);
      scan_shapes.push_back(std::move(shape));
    }
  }
  /// Uploads in cell transit, keyed by scheduler job handle.
  struct CellJob {
    ServerArrival arrival;
    double utility = 0.0;  ///< Satisfaction delivered within the run window.
  };
  std::unordered_map<std::uint64_t, CellJob> cell_jobs;
  std::vector<double> ttfu_s;  ///< First-scan delivery - enqueue, per job.
  double satisfaction_sum = 0.0;
  std::uint64_t cell_jobs_total = 0;
  std::uint64_t cell_jobs_completed = 0;

  // Global id -> ground-truth scene group, for precision accounting.
  std::unordered_map<idx::ImageId, std::size_t> gid_group;
  {
    wl::ImageStore setup_store;
    const auto n_seed = static_cast<std::size_t>(std::llround(
        std::clamp(o.seed_fraction, 0.0, 1.0) *
        static_cast<double>(set.images.size())));
    for (std::size_t i = 0; i < n_seed; ++i) {
      const feat::BinaryFeatures& f = setup_store.orb(set.images[i], 0.0);
      cloud::StoreInfo info;
      info.geo = set.images[i].geo;
      const idx::ImageId gid = cluster.store_binary(f, info);
      gid_group.emplace(gid, set.images[i].group);
    }
  }

  // --- The fleet. ---
  std::vector<std::unique_ptr<Device>> devices;
  devices.reserve(static_cast<std::size_t>(o.devices));
  for (int id = 0; id < o.devices; ++id) {
    Device::Config dc;
    dc.id = id;
    dc.fleet_seed = o.seed;
    dc.channel = net::ChannelParams::fixed(o.bitrate_kbps * 1000.0);
    dc.channel.loss_probability = o.loss;
    dc.retry = o.retry;
    dc.battery_fraction = o.battery_fraction;
    dc.adaptive = o.adaptive;
    dc.closed_loop = o.closed_loop;
    dc.think_s = o.think_s;
    dc.arrivals.steady_rate_hz = o.rate_hz;
    dc.arrivals.spike_start_s = o.spike_start_s;
    dc.arrivals.spike_duration_s = o.spike_duration_s;
    dc.arrivals.spike_multiplier = o.spike_multiplier;
    dc.batch_size = o.batch;
    dc.top_k = o.top_k;
    devices.push_back(std::make_unique<Device>(dc, set));
  }

  // --- Execution state. ---
  util::ThreadPool pool(o.workers < 0 ? 1
                                      : static_cast<std::size_t>(o.workers));
  const std::size_t n = devices.size();
  const std::size_t chunks = std::min(n, pool.thread_count());
  const std::size_t per_chunk = (n + chunks - 1) / chunks;
  // One private store per chunk; chunk boundaries are fixed for the whole
  // run, so each device always hits the same caches.
  std::vector<wl::ImageStore> stores(chunks);
  std::vector<std::vector<ServerArrival>> outs(n);

  QueueModel gate(o.server_threads, o.queue_depth);
  obs::MetricsRegistry metrics;
  metrics.declare_histogram("latency_all", obs::MetricsRegistry::latency_bounds());
  metrics.declare_histogram("latency_query",
                            obs::MetricsRegistry::latency_bounds());
  metrics.declare_histogram("latency_upload",
                            obs::MetricsRegistry::latency_bounds());
  const std::vector<std::uint8_t> shed_payload =
      net::encode_error(serve::kShedErrorMessage);
  // Relay-side replies: a retryable rejection (relay down, or a query that
  // needs the partitioned backhaul) and the local ack a relay gives for an
  // upload it parks (the device's chain completes; the core sees the bytes
  // at heal time).
  const std::vector<std::uint8_t> relay_reject_payload =
      net::encode_error(relay::kRelayUnavailableMessage);
  const std::vector<std::uint8_t> relay_ack_payload =
      net::encode(net::UploadAck{});
  // Local-hop service time a relay adds when it answers for the core.
  constexpr double kRelayServiceS = 0.005;
  constexpr std::uint64_t kNoGroup = ~std::uint64_t{0};

  std::vector<ServerArrival> pending;
  std::map<std::uint64_t, std::vector<FutureReply>> future_replies;

  Totals totals;
  PrecisionInputs prec;
  double serve_wall = 0.0;
  std::size_t real_handles = 0;
  /// Query-batch sizes actually issued, in virtual arrival order — a pure
  /// function of the admitted timeline, so the batching stats are as
  /// deterministic as everything else in the report.
  std::vector<std::size_t> batch_sizes;

  const auto schedule_delivery = [&](int device, Reply reply,
                                     double completion_s, std::uint64_t j) {
    // A device may observe a reply no earlier than its completion and no
    // earlier than the epoch after the barrier that resolved it.
    std::uint64_t m = j + 1;
    if (completion_s >= static_cast<double>(j + 1) * E) {
      m = std::max<std::uint64_t>(
          m, static_cast<std::uint64_t>(std::floor(completion_s / E)));
    }
    FutureReply fr;
    fr.device = device;
    fr.reply = std::move(reply);
    fr.reaction_s = std::max(completion_s, static_cast<double>(m) * E);
    future_replies[m].push_back(std::move(fr));
  };

  // Pushes every upload a relay held through the backhaul: CARE-accounted,
  // then applied to the cluster directly, in hold (FIFO) order.  Held
  // uploads bypass the admission gate — the relay owns the backhaul and
  // trickles its queue as background traffic; the device was acked at hold
  // time, so only the index (and the dedup ledger) changes here.
  const auto drain_relay = [&](relay::Relay& rl) {
    for (relay::HeldRequest& h : rl.take_held()) {
      rl.forward(h.request);
      const std::vector<std::uint8_t> reply = cluster.handle(h.request);
      ++real_handles;
      try {
        const net::Envelope env = net::open_envelope(reply);
        if (env.type == net::MessageType::kUploadAck && h.token != kNoGroup) {
          const net::UploadAck ack = net::decode_upload_ack(env.payload);
          gid_group.emplace(ack.id, static_cast<std::size_t>(h.token));
        }
      } catch (const util::DecodeError&) {
      }
    }
  };

  const auto load_epochs =
      static_cast<std::uint64_t>(std::ceil(o.duration_s / E));
  const auto max_epochs =
      load_epochs +
      static_cast<std::uint64_t>(std::ceil((o.duration_s + 600.0) / E));
  bool stopped = false;

  for (std::uint64_t j = 0;; ++j) {
    const double t0 = static_cast<double>(j) * E;
    const double t1 = static_cast<double>(j + 1) * E;

    if (j >= load_epochs && !stopped) {
      for (auto& d : devices) d->stop_capturing();
      stopped = true;
    }
    if (stopped) {
      bool busy = !pending.empty() || !future_replies.empty() ||
                  !cell_jobs.empty();
      if (!busy) {
        for (const auto& d : devices) {
          if (d->open_ops() > 0) {
            busy = true;
            break;
          }
        }
      }
      if (!busy || j >= max_epochs) break;
    }

    // Scheduled disasters fire at the epoch boundary, in schedule order:
    // primaries die first (failover promotes a drained follower), then any
    // relay whose backhaul healed this epoch drains its held uploads into
    // the (possibly just-promoted) cluster.
    for (const PrimaryKill& k : o.primary_kills) {
      if (k.epoch == j) cluster.kill_primary(k.shard);
    }
    if (relay_tier) {
      for (int r = 0; r < relay_tier->size(); ++r) {
        if (relay_tier->at(r).queue_depth() == 0) continue;
        if (window_hits(o.relay_outages, r, j)) continue;
        if (window_hits(o.partitions, r, j)) continue;
        drain_relay(relay_tier->at(r));
      }
    }

    // Deliver replies scheduled for this epoch, in (device, seq) order.
    if (auto it = future_replies.find(j); it != future_replies.end()) {
      std::sort(it->second.begin(), it->second.end(),
                [](const FutureReply& a, const FutureReply& b) {
                  if (a.device != b.device) return a.device < b.device;
                  return a.reply.seq < b.reply.seq;
                });
      for (auto& fr : it->second) {
        devices[static_cast<std::size_t>(fr.device)]->deliver(
            std::move(fr.reply), fr.reaction_s);
      }
      future_replies.erase(it);
    }

    // Phase A: advance every device through [t0, t1) in parallel.  Static
    // chunks, private stores, per-device output buffers: no shared state.
    pool.parallel_for(chunks, [&](std::size_t c) {
      const std::size_t begin = c * per_chunk;
      const std::size_t end = std::min(begin + per_chunk, n);
      for (std::size_t i = begin; i < end; ++i) {
        devices[i]->advance(t0, t1, stores[c], outs[i]);
      }
    });

    // Crowded cell: deliver scans over [t0, t1).  A job submitted at the
    // previous barrier (arrival < t0) competes for this window's budget;
    // deliveries come back in completion order, a pure function of the
    // virtual timeline.  First-scan deliveries record time-to-first-usable;
    // a completed upload re-enters the pending set as a core arrival at its
    // cell-exit time (cell_done keeps it out of the cell on resolution).
    if (cell) {
      for (const sched::CellDelivery& d : cell->advance(t0, t1)) {
        const auto it = cell_jobs.find(d.job);
        if (it == cell_jobs.end()) continue;  // unreachable
        CellJob& job = it->second;
        // Satisfaction is a real-time metric: scans landing during the
        // post-duration drain still complete the upload (byte accounting
        // stays whole) but deliver no situation awareness in time.
        if (d.time_s <= o.duration_s) job.utility = d.utility_total;
        if (d.first_scan) ttfu_s.push_back(d.time_s - job.arrival.enqueue_s);
        if (d.final_scan) {
          ServerArrival a = std::move(job.arrival);
          a.arrival_s = d.time_s;
          a.cell_done = true;
          satisfaction_sum += job.utility;
          ++cell_jobs_completed;
          cell_jobs.erase(it);
          pending.push_back(std::move(a));
        }
      }
    }

    // Barrier: merge this epoch's delivered attempts into the pending set
    // and resolve everything arriving before t1 in global time order.
    for (std::size_t i = 0; i < n; ++i) {
      for (auto& a : outs[i]) pending.push_back(std::move(a));
      outs[i].clear();
    }
    std::sort(pending.begin(), pending.end(),
              [](const ServerArrival& a, const ServerArrival& b) {
                if (a.arrival_s != b.arrival_s) return a.arrival_s < b.arrival_s;
                if (a.device != b.device) return a.device < b.device;
                return a.seq < b.seq;
              });
    std::size_t ready = 0;
    while (ready < pending.size() && pending[ready].arrival_s < t1) ++ready;

    // Virtual admission pass: every shed is decided here, in virtual time.
    std::vector<std::size_t> admitted;
    std::vector<double> completions;
    for (std::size_t k = 0; k < ready; ++k) {
      ServerArrival& a = pending[k];
      // Congested cell first: an upload that has not yet transited it is
      // submitted scan by scan (shaped by its image's precomputed scan
      // profile, scaled to the modelled wire bytes) and resolves at a
      // later barrier when its final scan clears the cell.  Queries — and
      // cell-exit arrivals — continue to the relay/admission path.
      if (cell && a.kind == OpKind::kUpload && !a.cell_done) {
        const std::size_t img_ix = a.image_ids.empty() ? 0 : a.image_ids[0];
        const ScanShape& shape = scan_shapes[img_ix];
        std::vector<sched::ScanUnit> units(shape.fraction.size());
        for (std::size_t s = 0; s < units.size(); ++s) {
          units[s].bytes = shape.fraction[s] * a.wire_bytes;
          units[s].utility = shape.utility[s];
        }
        const std::uint64_t h = cell->submit(std::move(units), a.arrival_s);
        ++cell_jobs_total;
        cell_jobs.emplace(h, CellJob{std::move(a), 0.0});
        continue;
      }
      // Relay hop next: a down relay rejects retryably; a partitioned
      // backhaul parks uploads (local ack now, core at heal) and rejects
      // queries; a healthy relay charges the backhaul through CARE dedup
      // and passes the request on to the admission gate.  Every arrival
      // resolved at this barrier lies in [t0, t1), so epoch j is the
      // arrival's own epoch and the routing is worker-count-independent.
      if (relay_tier) {
        const int r = a.device % o.relays;
        const bool down = window_hits(o.relay_outages, r, j);
        const bool parted = !down && window_hits(o.partitions, r, j);
        if (down || (parted && a.kind == OpKind::kQuery)) {
          ++relay_rejects;
          Reply rr;
          rr.seq = a.seq;
          rr.shed = true;  // retryable, like a gate shed
          rr.completion_s = a.arrival_s + kRelayServiceS;
          rr.payload = relay_reject_payload;
          rr.request = std::move(a.request);
          schedule_delivery(a.device, std::move(rr), rr.completion_s, j);
          continue;
        }
        if (parted) {
          const std::uint64_t token =
              a.image_ids.empty()
                  ? kNoGroup
                  : static_cast<std::uint64_t>(
                        set.images[a.image_ids[0]].group);
          relay_tier->at(r).hold(token, std::move(a.request));
          Reply rr;
          rr.seq = a.seq;
          rr.shed = false;
          rr.completion_s = a.arrival_s + kRelayServiceS;
          rr.payload = relay_ack_payload;
          schedule_delivery(a.device, std::move(rr), rr.completion_s, j);
          continue;
        }
        relay_tier->at(r).forward(a.request);
      }
      const double service_s =
          o.service_base_s + o.service_per_image_s * a.n_images;
      const ServiceOutcome outcome = gate.offer(a.arrival_s, service_s);
      if (outcome.shed) {
        totals.shed_bytes += a.wire_bytes;
        Reply r;
        r.seq = a.seq;
        r.shed = true;
        r.completion_s = outcome.completion_s;
        r.payload = shed_payload;
        r.request = std::move(a.request);
        schedule_delivery(a.device, std::move(r), outcome.completion_s, j);
      } else {
        admitted.push_back(k);
        completions.push_back(outcome.completion_s);
      }
    }

    // Real execution of admitted requests, in virtual arrival order:
    // contiguous runs of read-only queries are grouped into coalesced
    // batches of at most batch_window and fan out across the pool (each
    // batch shares one query_binary_batch fan-out inside the cluster),
    // uploads apply serially, so index state evolves exactly as the
    // virtual timeline dictates.  Grouping is index arithmetic over the
    // admitted order — deterministic for every worker count — and
    // handle_coalesced replies are byte-identical to per-request handle().
    std::vector<std::vector<std::uint8_t>> replies(admitted.size());
    {
      const auto serve_start = Clock::now();
      const auto window = static_cast<std::size_t>(o.batch_window);
      std::size_t i = 0;
      while (i < admitted.size()) {
        if (pending[admitted[i]].kind == OpKind::kUpload) {
          replies[i] = cluster.handle(pending[admitted[i]].request);
          ++i;
          continue;
        }
        std::size_t run_end = i;
        while (run_end < admitted.size() &&
               pending[admitted[run_end]].kind == OpKind::kQuery) {
          ++run_end;
        }
        const std::size_t run_len = run_end - i;
        const std::size_t n_groups = (run_len + window - 1) / window;
        const auto serve_group = [&](std::size_t g) {
          const std::size_t gb = i + g * window;
          const std::size_t ge = std::min(gb + window, run_end);
          std::vector<std::vector<std::uint8_t>> group;
          group.reserve(ge - gb);
          for (std::size_t r = gb; r < ge; ++r) {
            group.push_back(pending[admitted[r]].request);
          }
          std::vector<std::vector<std::uint8_t>> group_replies =
              cluster.handle_coalesced(group);
          for (std::size_t r = gb; r < ge; ++r) {
            replies[r] = std::move(group_replies[r - gb]);
          }
        };
        // Free workers claim groups: each loop takes the next unclaimed
        // group, so a costly group or a shared CPU holds up one worker
        // rather than a fixed chunk.  Which worker serves a group cannot
        // change a reply: each group writes only its own reply slots and
        // the index is read-only for the whole run.
        std::atomic<std::size_t> next_group{0};
        pool.parallel_for(std::min(n_groups, pool.thread_count()),
                          [&](std::size_t) {
                            for (std::size_t g = next_group++; g < n_groups;
                                 g = next_group++) {
                              serve_group(g);
                            }
                          });
        for (std::size_t g = 0; g < n_groups; ++g) {
          const std::size_t gb = i + g * window;
          batch_sizes.push_back(std::min(gb + window, run_end) - gb);
        }
        i = run_end;
      }
      serve_wall += seconds_since(serve_start);
      real_handles += admitted.size();
    }

    for (std::size_t i = 0; i < admitted.size(); ++i) {
      ServerArrival& a = pending[admitted[i]];
      const double completion_s = completions[i];
      const double latency_s = completion_s - a.enqueue_s;
      metrics.observe("latency_all", latency_s);
      ++totals.served;
      if (a.kind == OpKind::kQuery) {
        metrics.observe("latency_query", latency_s);
        totals.feature_bytes += a.wire_bytes;
        // Replay the device's redundant/unique split against ground truth.
        try {
          const net::Envelope env = net::open_envelope(replies[i]);
          if (env.type == net::MessageType::kBatchQueryResponse) {
            const net::BatchQueryResponse response =
                net::decode_batch_query_response(env.payload);
            const std::size_t nv =
                std::min(response.verdicts.size(), a.image_ids.size());
            for (std::size_t v = 0; v < nv; ++v) {
              const net::QueryResponse& verdict = response.verdicts[v];
              if (verdict.max_similarity <= a.redundancy_threshold) continue;
              const auto git = gid_group.find(verdict.best_id);
              const std::size_t truth = set.images[a.image_ids[v]].group;
              if (git != gid_group.end() && git->second == truth) {
                ++prec.redundant_correct;
              } else {
                ++prec.redundant_wrong;
              }
            }
          }
        } catch (const util::DecodeError&) {
          // Counted as a terminal error by the device when it decodes.
        }
      } else {
        metrics.observe("latency_upload", latency_s);
        totals.image_bytes += a.wire_bytes;
        try {
          const net::Envelope env = net::open_envelope(replies[i]);
          if (env.type == net::MessageType::kUploadAck) {
            const net::UploadAck ack = net::decode_upload_ack(env.payload);
            gid_group.emplace(ack.id, set.images[a.image_ids[0]].group);
          }
        } catch (const util::DecodeError&) {
        }
      }
      Reply r;
      r.seq = a.seq;
      r.shed = false;
      r.completion_s = completion_s;
      r.payload = std::move(replies[i]);
      schedule_delivery(a.device, std::move(r), completion_s, j);
    }
    pending.erase(pending.begin(),
                  pending.begin() + static_cast<std::ptrdiff_t>(ready));
  }

  // Implicit heal at run end: any upload still parked behind an unhealed
  // partition drains now, so the scenario's byte accounting is complete.
  if (relay_tier) {
    for (int r = 0; r < relay_tier->size(); ++r) {
      if (relay_tier->at(r).queue_depth() > 0) drain_relay(relay_tier->at(r));
    }
  }

  // --- Aggregate, in device-id order. ---
  FleetResult result;
  FleetReport& report = result.report;
  double battery_sum = 0.0;
  for (const auto& d : devices) {
    const DeviceStats& s = d->stats();
    report.energy += s.energy;
    totals.captures += s.captures;
    totals.queries += s.queries;
    totals.uploads += s.uploads;
    totals.attempts += s.attempts;
    totals.loss_retries += s.loss_retries;
    totals.shed_retries += s.shed_retries;
    totals.gave_up += s.gave_up;
    totals.terminal_errors += s.terminal_errors;
    totals.retransmitted_bytes += s.retransmitted_bytes;
    totals.rx_bytes += s.rx_bytes;
    totals.backoff_s += s.backoff_s;
    prec.unique_images += s.unique_images;
    prec.redundant_images += s.redundant_images;
    battery_sum += d->battery_fraction();
    if (s.depleted || d->battery_fraction() <= 0.0) {
      ++totals.depleted_devices;
    }
  }
  totals.offered = gate.offered();
  totals.shed = gate.shed();
  report.mean_battery_fraction =
      battery_sum / static_cast<double>(devices.size());

  const obs::MetricsSnapshot snap = metrics.snapshot();
  report.latency_all = LatencySummary::from(snap.histograms.at("latency_all"));
  report.latency_query =
      LatencySummary::from(snap.histograms.at("latency_query"));
  report.latency_upload =
      LatencySummary::from(snap.histograms.at("latency_upload"));
  report.totals = totals;
  report.precision = prec;

  BatchStats& batching = report.batching;
  batching.batches = batch_sizes.size();
  if (!batch_sizes.empty()) {
    std::vector<std::size_t> sorted = batch_sizes;
    std::sort(sorted.begin(), sorted.end());
    const auto nearest_rank = [&](double q) {
      std::size_t rank = static_cast<std::size_t>(
          std::ceil(q * static_cast<double>(sorted.size())));
      if (rank == 0) rank = 1;
      return static_cast<double>(sorted[rank - 1]);
    };
    batching.batch_size_p50 = nearest_rank(0.50);
    batching.batch_size_p99 = nearest_rank(0.99);
    batching.coalesced_rps =
        static_cast<double>(batching.batches) / o.duration_s;
  }

  ResilienceStats& res = report.resilience;
  {
    const serve::BackendResilience br = cluster.resilience();
    res.failovers = br.failovers;
    res.catch_ups = br.catch_ups;
    res.live_standbys = br.live_standbys;
    res.ship_records = br.ship_records;
    res.ship_bytes = br.ship_bytes;
    res.ship_lag_max = br.ship_lag_max;
  }
  if (relay_tier) {
    const relay::RelayStats rs = relay_tier->stats();
    res.relay_requests = rs.forwarded_requests;
    res.relay_ingress_bytes = rs.ingress_bytes;
    res.relay_backhaul_bytes = rs.backhaul_bytes;
    res.relay_dedup_chunks_hit = rs.dedup_chunks_hit;
    res.relay_dedup_bytes_saved = rs.dedup_bytes_saved;
    res.relay_held = rs.held_requests;
    res.relay_drained = rs.drained_requests;
    res.relay_queue_depth_max = rs.queue_depth_max;
  }
  res.relay_rejects = relay_rejects;

  if (cell_enabled) {
    SatisfactionStats& sat = report.satisfaction;
    sat.enabled = true;
    sat.scans = o.scans;
    sat.cell_bandwidth_kbps = o.cell_bandwidth_kbps;
    sat.jobs = cell_jobs_total;
    sat.jobs_completed = cell_jobs_completed;
    sat.scans_delivered = cell->stats().scans_delivered;
    sat.cell_bytes = cell->stats().bytes_delivered;
    if (!ttfu_s.empty()) {
      double sum = 0.0;
      for (const double t : ttfu_s) sum += t;
      sat.mean_ttfu_s = sum / static_cast<double>(ttfu_s.size());
      std::vector<double> sorted = ttfu_s;
      std::sort(sorted.begin(), sorted.end());
      std::size_t rank = static_cast<std::size_t>(
          std::ceil(0.99 * static_cast<double>(sorted.size())));
      if (rank == 0) rank = 1;
      sat.p99_ttfu_s = sorted[rank - 1];
    }
    // Jobs still mid-transit at run end contribute their partial utility;
    // summed in job-handle order so the report bytes never depend on
    // unordered_map iteration order.
    {
      std::vector<std::pair<std::uint64_t, double>> partial;
      partial.reserve(cell_jobs.size());
      for (const auto& [h, job] : cell_jobs) partial.emplace_back(h, job.utility);
      std::sort(partial.begin(), partial.end());
      for (const auto& [h, u] : partial) satisfaction_sum += u;
    }
    sat.mean_satisfaction =
        cell_jobs_total > 0
            ? satisfaction_sum / static_cast<double>(cell_jobs_total)
            : 0.0;
    sat.slo_min = o.slo_min_satisfaction;
    sat.ok = o.slo_min_satisfaction < 0.0 ||
             sat.mean_satisfaction >= o.slo_min_satisfaction;
  }

  ConfigEcho& echo = report.config;
  echo.seed = o.seed;
  echo.devices = o.devices;
  echo.duration_s = o.duration_s;
  echo.epoch_s = o.epoch_s;
  echo.closed_loop = o.closed_loop;
  echo.rate_hz = o.rate_hz;
  echo.think_s = o.think_s;
  echo.spike_start_s = o.spike_start_s;
  echo.spike_duration_s = o.spike_duration_s;
  echo.spike_multiplier = o.spike_multiplier;
  echo.batch = o.batch;
  echo.shards = o.shards;
  echo.server_threads = o.server_threads;
  echo.queue_depth = o.queue_depth;
  echo.batch_window = o.batch_window;
  echo.bitrate_kbps = o.bitrate_kbps;
  echo.loss = o.loss;
  echo.adaptive = o.adaptive;
  echo.battery_fraction = o.battery_fraction;
  echo.replicas = o.replicas;
  echo.relays = o.relays;

  SloVerdict& slo = report.slo;
  slo.p99_target_s = o.slo_p99_s;
  slo.max_shed_rate = o.slo_max_shed_rate;
  slo.p99_s = report.latency_all.p99_s;
  slo.shed_rate = totals.shed_rate();
  slo.p99_ok = o.slo_p99_s <= 0.0 || slo.p99_s <= o.slo_p99_s;
  slo.shed_ok = o.slo_max_shed_rate < 0.0 || slo.shed_rate <= o.slo_max_shed_rate;

  result.serve_wall_seconds = serve_wall;
  result.real_handles = real_handles;
  result.wall_seconds = seconds_since(wall_start);
  return result;
}

}  // namespace bees::fleet

