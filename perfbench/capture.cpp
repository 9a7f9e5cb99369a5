// Capture phase: simulated phones run the real BEES client pipeline
// (BeesScheme::upload_batch — AFE, CBRD, IBRD, AIU) in a closed loop with
// zero think time against one durable, replicated, 4-shard serve::Cluster
// with a segment store.  Every capture is a fresh 8-image disaster-like
// batch whose pixels were rendered during input generation, so feature
// extraction is real work on every capture, never a cache hit.  Chunked,
// progressive uploads are on.
//
// Measured: the process CPU time and the wall time of each round of
// upload_batch calls, and the CPU time of the cluster's set-up calls
// (construction, seeding, recovery).
//
// Devices share one index, so a capture's cross-batch verdicts depend on
// which other devices' uploads it races: chance-level ORB similarity
// between unrelated scenes reaches the EDR threshold.  The concurrent run
// is therefore checked against a serial replay that answers each batch
// query with the reply the cluster gave it, and the modelled cost metrics
// (KB and joules per image) come from a serial pass, device by device
// through cloud::dispatch, which is exactly repeatable per seed.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cloud/rpc.hpp"
#include "core/bees.hpp"
#include "energy/adaptive.hpp"
#include "imaging/codec.hpp"
#include "imaging/progressive.hpp"
#include "imaging/transform.hpp"
#include "net/protocol.hpp"
#include "obs/json.hpp"
#include "replica/replication.hpp"
#include "serve/cluster.hpp"
#include "submodular/graph.hpp"
#include "submodular/ssmm.hpp"
#include "util/rng.hpp"
#include "workload/image_store.hpp"
#include "workload/imageset.hpp"

namespace perfbench {
namespace {

using namespace bees;

constexpr int kBatch = 8;
constexpr int kWidth = 320;
constexpr int kHeight = 240;
/// Cross-batch near-duplicates pre-seeded per capture (2 of 8 = 25%).
constexpr int kNearDupsPerCapture = 2;
/// Battery level every capture starts at: the adaptive knobs (EAC, EDR,
/// EAU) sit mid-range instead of at their full-energy values.
constexpr double kBatteryFraction = 0.6;
constexpr double kBitrateBps = 256.0 * 1000.0;
/// Codec bytes -> paper-scale (~700 KB) phone photo bytes.  Fixed, so the
/// modelled KB per image moves only with the images and the code.
constexpr double kImageByteScale = 40.0;
constexpr double kThumbnailBytes = 11'000.0;
constexpr int kScans = 4;
constexpr std::size_t kCheckpointEvery = 48;
constexpr int kSetups = 5;
constexpr int kRecoveries = 7;

core::SchemeConfig scheme_config() {
  core::SchemeConfig config;
  config.image_byte_scale = kImageByteScale;
  config.chunking.enabled = true;
  config.progressive.enabled = true;
  config.progressive.scans = kScans;
  return config;
}

serve::ClusterOptions cluster_options(const std::string& dir) {
  serve::ClusterOptions o;
  o.shards = 4;
  o.threads = 4;
  o.data_dir = dir + "/data";
  o.checkpoint_every = kCheckpointEvery;
  o.segment_store.dir = dir + "/segments";
  o.segment_store.chunk_size = scheme_config().chunking.chunk_size;
  o.backend_factory = replica::make_replicated_factory(1);
  // Serial rescoring per index: the default gives each of the 8 shard
  // instances (primaries and standbys) its own pool with one thread per
  // core, which would bury 4 cores under idle pool threads on a write path.
  o.binary_params.rescore_threads = 1;
  return o;
}

net::MessageType type_of(const std::vector<std::uint8_t>& envelope) {
  return envelope.empty() ? net::MessageType::kError
                          : static_cast<net::MessageType>(envelope[0]);
}

const char* serve_span_name(const std::vector<std::uint8_t>& request) {
  switch (type_of(request)) {
    case net::MessageType::kBinaryQuery:
    case net::MessageType::kBatchQuery:
      return "serve.query";
    case net::MessageType::kChunkManifest:
    case net::MessageType::kChunkData:
      return "serve.chunk";
    default:
      return "serve.upload";  // kImageUpload, kChunkCommit
  }
}

struct SeedImage {
  feat::BinaryFeatures features;
  idx::GeoTag geo;
};

/// One simulated phone: its captures, its image store (pixels rendered up
/// front), its radio, and what its uploads cost and returned.
struct Device {
  std::vector<std::vector<wl::ImageSpec>> captures;
  std::unique_ptr<wl::ImageStore> store;
  std::unique_ptr<core::BeesScheme> scheme;
  std::unique_ptr<net::Channel> channel;
  core::BatchReport total;
  /// The cluster's reply to every batch query, in order.
  std::vector<std::vector<std::uint8_t>> verdicts;
  std::uint64_t exchanges = 0;
  std::uint64_t sheds = 0;
  std::uint64_t errors = 0;
  std::uint64_t aborted = 0;
};

bool same_totals(const core::BatchReport& a, const core::BatchReport& b) {
  return a.images_offered == b.images_offered &&
         a.images_uploaded == b.images_uploaded &&
         a.delivered_bytes() == b.delivered_bytes() &&
         a.energy.total() == b.energy.total();
}

energy::Battery battery_at_level() {
  energy::Battery battery;
  battery.drain(battery.capacity_j() * (1.0 - kBatteryFraction));
  return battery;
}

void count_reply(const std::vector<std::uint8_t>& reply, Device& device) {
  ++device.exchanges;
  if (type_of(reply) != net::MessageType::kError) return;
  try {
    const std::string what =
        net::decode_error(net::open_envelope(reply).payload);
    (what == serve::kShedErrorMessage ? device.sheds : device.errors) += 1;
  } catch (const std::exception&) {
    ++device.errors;
  }
}

class CapturePhase final : public Phase {
 public:
  CapturePhase(const Args& args, const Shape& shape, int rounds,
               Results& results, Spans& spans)
      : args_(args),
        per_round_(std::max(1, static_cast<int>(args.seconds / 4.0 + 0.5))),
        dir_(args.tmp_dir + "/capture"),
        results_(results),
        spans_(spans) {
    const auto g0 = Clock::now();
    make_inputs(shape, per_round_ * rounds);
    note("capture: inputs generated in " +
         obs::json_number(seconds_between(g0, Clock::now())) + " s");

    // Set-up (construction + seeding) repeated in fresh directories; the
    // fastest is reported and the last cluster serves the rounds.
    std::vector<double> setups;
    for (int r = 0; r < kSetups; ++r) {
      cluster_.reset();
      const double c0 = process_cpu_s();
      cluster_ = std::make_unique<serve::Cluster>(
          cluster_options(dir_ + "/setup-" + std::to_string(r)));
      for (const SeedImage& s : near_dups_) {
        cluster_->seed_binary(s.features, s.geo, kThumbnailBytes);
      }
      setups.push_back(process_cpu_s() - c0);
    }
    setup_s_ = least(setups);

    for (std::size_t d = 0; d < devices_.size(); ++d) {
      Device& device = devices_[d];
      device.channel = std::make_unique<net::Channel>(
          net::ChannelParams::fixed(kBitrateBps));
      device.scheme = std::make_unique<core::BeesScheme>(
          *device.store, scheme_config(), /*adaptive=*/true);
      net::Transport::Handler inner = cluster_->handler();
      const auto lane = static_cast<std::uint32_t>(10 + d);
      device.scheme->set_server_handler(
          [this, &device, inner, lane](const std::vector<std::uint8_t>& req) {
            const auto t0 = Clock::now();
            std::vector<std::uint8_t> reply = inner(req);
            spans_.add(serve_span_name(req), "serve", t0, Clock::now(), lane);
            count_reply(reply, device);
            if (type_of(req) == net::MessageType::kBatchQuery) {
              device.verdicts.push_back(reply);
            }
            return reply;
          });
    }
  }

  void round() override {
    const bool traced = spans_.on();
    const std::size_t begin = made_;
    made_ += static_cast<std::size_t>(per_round_);
    std::vector<std::vector<double>> latencies(devices_.size());
    const double c0 = process_cpu_s();
    const auto w0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      threads.emplace_back([&, d] {
        for (std::size_t c = begin; c < made_; ++c) {
          latencies[d].push_back(capture(d, devices_[d].captures[c]));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = seconds_between(w0, Clock::now());
    const double cpu = process_cpu_s() - c0;

    std::vector<double> all;
    for (const auto& l : latencies) all.insert(all.end(), l.begin(), l.end());
    cpu_ms_.add(traced, 1e3 * cpu / static_cast<double>(all.size()));
    p50_.add(traced, median(all));
    images_per_s_.add(traced,
                      static_cast<double>(all.size() * kBatch) / wall);
    if (!traced) latencies_.insert(latencies_.end(), all.begin(), all.end());
  }

  void finish() override {
    const std::size_t stored = cluster_->stats().images_stored;
    const store::SegmentStore::Stats store_stats =
        cluster_->segment_store()->stats();
    const serve::BackendResilience resilience = cluster_->resilience();
    // Recovering a replicated, store-backed cluster from WAL tails alone
    // loses records (and with automatic checkpoints can fail on a missing
    // chunk), so the run ends on a checkpoint and recovery reads snapshots.
    cluster_->checkpoint();
    cluster_.reset();
    std::vector<double> recoveries;
    std::size_t recovered = 0;
    for (int r = 0; r < kRecoveries; ++r) {
      const double c0 = process_cpu_s();
      serve::Cluster reopened(
          cluster_options(dir_ + "/setup-" + std::to_string(kSetups - 1)));
      recoveries.push_back(process_cpu_s() - c0);
      recovered = reopened.stats().images_stored;
    }
    std::filesystem::remove_all(dir_);

    // Correctness: per-device totals equal a replay with the recorded
    // verdicts, and every image counted as uploaded was stored and
    // recovered.
    const std::vector<core::BatchReport> replay = serial_replay(true);
    bool same = true;
    core::BatchReport concurrent;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      same = same && same_totals(devices_[d].total, replay[d]);
      concurrent += devices_[d].total;
    }
    const auto uploaded = static_cast<std::size_t>(concurrent.images_uploaded);
    results_.check("capture_matches_replay", same,
                   std::to_string(uploaded) + " of " +
                       std::to_string(concurrent.images_offered) +
                       " images uploaded");
    results_.check("capture_stored_and_recovered",
                   stored == uploaded && recovered == uploaded,
                   std::to_string(stored) + " stored, " +
                       std::to_string(recovered) + " recovered");
    record_failures();

    // Modelled cost per offered image from the exactly repeatable serial
    // pass.
    core::BatchReport modelled;
    for (const core::BatchReport& r : serial_replay(false)) modelled += r;
    const double offered = std::max(1, modelled.images_offered);
    const Summary lat = summarize(latencies_);
    results_.metric("capture.setup_s", setup_s_ + least(recoveries), "s");
    results_.metric("capture_cpu_ms", cpu_ms_.value(), "ms");
    results_.metric("capture_p50_ms", 1e3 * p50_.value(), "ms");
    results_.metric("capture_tail_ms", 1e3 * lat.tail, "ms");
    results_.metric("capture_images_per_s", images_per_s_.value(), "img/s");
    results_.metric("uplink_kb_per_image",
                    modelled.delivered_bytes() / offered / 1024.0, "KB");
    results_.metric("device_j_per_image", modelled.energy.total() / offered,
                    "J");
    note("capture: " + std::to_string(lat.n) + " untraced captures in " +
         std::to_string(p50_.untraced.size()) + " rounds, tail at p" +
         obs::json_number(lat.tail_pct) + "; serial pass uploaded " +
         std::to_string(modelled.images_uploaded) + "/" +
         std::to_string(modelled.images_offered) + " images, concurrent " +
         std::to_string(uploaded));

    if (p50_.traced.empty()) return;
    record_per_layer(store_stats, resilience);
    results_.metric("trace.capture_overhead_frac", cpu_ms_.overhead(),
                    "fraction");
  }

 private:
  /// Capture specs for every device, near-duplicates to seed the cluster
  /// with, and each device's pre-rendered pixels (one thread per device;
  /// not timed).
  void make_inputs(const Shape& shape, int captures) {
    devices_.resize(kLoadThreads);
    std::vector<std::vector<SeedImage>> dups(devices_.size());
    std::vector<std::thread> threads;
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      threads.emplace_back([&, d] {
        Device& device = devices_[d];
        wl::ImageStore scratch;
        for (int c = 0; c < captures; ++c) {
          const std::uint64_t s = mix_seed(args_.seed, 1 + d, 1 + c);
          device.captures.push_back(
              wl::make_disaster_like(kBatch, shape.redundant ? 1 : 0, kWidth,
                                     kHeight, s)
                  .images);
          if (!shape.redundant) continue;
          util::Rng rng(s ^ 0xd0bull);
          std::vector<std::size_t> order(kBatch);
          for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
          rng.shuffle(order);
          for (int k = 0; k < kNearDupsPerCapture; ++k) {
            const wl::ImageSpec dup = wl::make_near_duplicate(
                device.captures.back()[order[k]], s + k);
            dups[d].push_back({scratch.orb(dup, 0.0), dup.geo});
          }
        }
        wl::ImageStore::Params params;
        params.pixel_cache_capacity =
            static_cast<std::size_t>(captures) * kBatch;
        device.store = std::make_unique<wl::ImageStore>(params);
        for (const auto& batch : device.captures) {
          for (const wl::ImageSpec& spec : batch) device.store->pixels(spec);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (auto& v : dups) {
      for (SeedImage& s : v) near_dups_.push_back(std::move(s));
    }
  }

  /// Runs one capture of device `d`; returns its wall time in seconds.
  double capture(std::size_t d, const std::vector<wl::ImageSpec>& batch) {
    Device& device = devices_[d];
    const auto lane = static_cast<std::uint32_t>(10 + d);
    cloud::Server unused;  // every exchange goes to the device's handler
    energy::Battery battery = battery_at_level();
    const energy::adapt::Knobs knobs =
        energy::adapt::Knobs::from_battery(battery.fraction());
    const auto t0 = Clock::now();
    if (spans_.on()) {
      // AFE timed on its own: upload_batch then finds the features cached.
      for (const wl::ImageSpec& spec : batch) {
        const auto f0 = Clock::now();
        device.store->orb(spec, knobs.bitmap_compression);
        spans_.add("features.orb", "features", f0, Clock::now(), lane);
      }
    }
    const core::BatchReport report =
        device.scheme->upload_batch(batch, unused, *device.channel, battery);
    const auto t1 = Clock::now();
    spans_.add("core.capture", "core", t0, t1, lane);
    device.total += report;
    if (report.aborted) ++device.aborted;
    if (spans_.on()) probe_device_layers(device, batch, knobs, lane);
    return seconds_between(t0, t1);
  }

  /// Times the device-side layers of one finished capture from outside the
  /// capture's timed window: the in-batch similarity graph, the SSMM
  /// selection, and the progressive encode of every selected image.
  void probe_device_layers(Device& device,
                           const std::vector<wl::ImageSpec>& batch,
                           const energy::adapt::Knobs& knobs,
                           std::uint32_t lane) {
    const core::SchemeConfig config = scheme_config();
    std::vector<const feat::BinaryFeatures*> features;
    for (const wl::ImageSpec& spec : batch) {
      features.push_back(&device.store->orb(spec, knobs.bitmap_compression));
    }
    const auto t0 = Clock::now();
    const sub::SimilarityGraph graph =
        sub::build_similarity_graph(features, config.match);
    const auto t1 = Clock::now();
    sub::select_unique_images(graph, knobs.ssmm_threshold, config.ssmm);
    const auto t2 = Clock::now();
    spans_.add("features.jaccard_batch", "features", t0, t1, lane);
    spans_.add("submodular.select", "submodular", t1, t2, lane);
    const int quality = img::quality_from_proportion(knobs.quality_proportion);
    for (const std::size_t i : device.scheme->last_trace().selected) {
      const img::Image& full = device.store->pixels(batch[i]);
      const auto e0 = Clock::now();
      const img::ProgressiveStream stream =
          knobs.resolution_compression > 0.0
              ? img::encode_progressive(
                    img::bitmap_compress(full, knobs.resolution_compression),
                    quality, kScans)
              : img::encode_progressive(full, quality, kScans);
      spans_.add("imaging.encode", "imaging", e0, Clock::now(), lane);
    }
  }

  /// Serial replay of every capture made, device by device, through
  /// cloud::dispatch on one cloud::Server seeded identically.  With
  /// `recorded_verdicts`, each batch query is answered with the reply the
  /// cluster gave it instead.  Features and payloads come from the stores'
  /// caches, so a replay costs little.
  std::vector<core::BatchReport> serial_replay(bool recorded_verdicts) {
    const core::SchemeConfig config = scheme_config();
    store::SegmentStoreOptions store_options;
    store_options.chunk_size = config.chunking.chunk_size;
    store::SegmentStore chunk_store(store_options);
    cloud::Server server;
    server.attach_chunk_store(&chunk_store);
    for (const SeedImage& s : near_dups_) {
      server.seed_binary(s.features, s.geo, kThumbnailBytes);
    }
    std::vector<core::BatchReport> totals(devices_.size());
    for (std::size_t d = 0; d < devices_.size(); ++d) {
      core::BeesScheme scheme(*devices_[d].store, config, /*adaptive=*/true);
      std::size_t next = 0;
      scheme.set_server_handler(
          [&](const std::vector<std::uint8_t>& request) {
            if (recorded_verdicts &&
                type_of(request) == net::MessageType::kBatchQuery) {
              return devices_[d].verdicts.at(next++);
            }
            return cloud::dispatch(server, request);
          });
      net::Channel channel(net::ChannelParams::fixed(kBitrateBps));
      for (std::size_t c = 0; c < made_; ++c) {
        energy::Battery battery = battery_at_level();
        totals[d] += scheme.upload_batch(devices_[d].captures[c], server,
                                         channel, battery);
      }
    }
    return totals;
  }

  void record_failures() {
    std::uint64_t failed = 0;
    for (const Device& d : devices_) {
      failed += d.aborted + static_cast<std::uint64_t>(d.total.gave_up) +
                d.sheds + d.errors;
    }
    const std::uint64_t attempted = made_ * devices_.size();
    results_.attempts(attempted, failed);
    results_.metric("capture.error_rate",
                    static_cast<double>(failed) /
                        static_cast<double>(std::max<std::uint64_t>(1, attempted)),
                    "fraction");
  }

  void record_per_layer(const store::SegmentStore::Stats& store_stats,
                        const serve::BackendResilience& resilience) {
    const auto ms = [](const std::vector<double>& v) {
      return 1e3 * median(v);
    };
    results_.metric("features.orb_ms", ms(spans_.durations("features.orb")),
                    "ms");
    const double pairs = kBatch * (kBatch - 1) / 2.0;
    results_.metric(
        "features.jaccard_us",
        1e6 * median(spans_.durations("features.jaccard_batch")) / pairs,
        "us");
    results_.metric("submodular.select_ms",
                    ms(spans_.durations("submodular.select")), "ms");
    results_.metric("imaging.encode_ms",
                    ms(spans_.durations("imaging.encode")), "ms");
    double handler_s = 0.0;
    for (const char* kind : {"query", "upload", "chunk"}) {
      const std::vector<double> d =
          spans_.durations(std::string("serve.") + kind);
      for (const double s : d) handler_s += s;
      const Summary s = summarize(d);
      results_.metric(std::string("serve.") + kind + "_ms_p50", 1e3 * s.p50,
                      "ms");
      results_.metric(std::string("serve.") + kind + "_ms_tail",
                      1e3 * s.tail, "ms");
    }
    double capture_s = 0.0;
    for (const double s : spans_.durations("core.capture")) capture_s += s;
    results_.metric("core.device_share",
                    capture_s > 0 ? 1.0 - handler_s / capture_s : 0.0,
                    "fraction");
    results_.metric("core.capture_base_s", capture_s, "s");

    core::BatchReport total;
    std::uint64_t exchanges = 0;
    for (const Device& d : devices_) {
      total += d.total;
      exchanges += d.exchanges;
    }
    results_.metric("net.chunks_sent", total.chunks_sent, "count");
    results_.metric("net.chunks_deduped", total.chunks_deduped, "count");
    results_.metric("net.exchanges_per_capture",
                    static_cast<double>(exchanges) /
                        static_cast<double>(made_ * devices_.size()),
                    "count");
    results_.metric("store.bytes_written",
                    static_cast<double>(store_stats.disk_bytes), "B");
    results_.metric("store.segments",
                    static_cast<double>(store_stats.segments), "count");
    results_.metric("store.compactions",
                    static_cast<double>(store_stats.compactions), "count");
    results_.metric("replica.ship_records",
                    static_cast<double>(resilience.ship_records), "count");
    results_.metric("replica.ship_bytes",
                    static_cast<double>(resilience.ship_bytes), "B");
  }

  const Args& args_;
  const int per_round_;  ///< Captures per device per round.
  const std::string dir_;
  Results& results_;
  Spans& spans_;

  std::vector<Device> devices_;
  std::vector<SeedImage> near_dups_;
  std::unique_ptr<serve::Cluster> cluster_;
  double setup_s_ = 0.0;
  std::size_t made_ = 0;  ///< Captures made so far, per device.
  RoundValues cpu_ms_;  ///< Process CPU time per capture.
  RoundValues p50_;
  RoundValues images_per_s_;
  std::vector<double> latencies_;  ///< Untraced rounds' captures, pooled.
};

}  // namespace

std::unique_ptr<Phase> make_capture_phase(const Args& args, const Shape& shape,
                                          int rounds, Results& results,
                                          Spans& spans) {
  return std::make_unique<CapturePhase>(args, shape, rounds, results, spans);
}

}  // namespace perfbench
