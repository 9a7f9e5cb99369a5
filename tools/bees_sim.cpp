// bees_sim — command-line BEES simulator.  Runs any scheme over a
// configurable workload/channel/battery and prints the itemized report, so
// a downstream user can explore the design space without writing code.
//
// Usage:
//   bees_sim [--scheme NAME] [--images N] [--similar N] [--redundancy R]
//            [--bitrate KBPS] [--battery PCT] [--width W] [--height H]
//            [--seed S] [--loss P] [--outage P] [--outage-dur S]
//            [--retries N] [--timeout S] [--backoff S] [--csv]
//            [--metrics-json PATH] [--trace PATH]
//
//   --scheme      Direct | SmartEye | MRC | BEES | BEES-EA   (default BEES)
//   --images      batch size                                  (default 40)
//   --similar     in-batch similar images in the batch        (default 4)
//   --redundancy  cross-batch redundancy ratio 0..1 seeded on
//                 the server                                  (default 0.25)
//   --bitrate     fixed channel bitrate in Kbps; 0 = the
//                 fluctuating 0-512 Kbps disaster channel     (default 256)
//   --battery     starting battery percentage 1..100          (default 100)
//   --loss        per-message loss probability 0..1           (default 0)
//   --outage      outage probability per channel resample     (default 0)
//   --outage-dur  outage window length in seconds             (default 4)
//   --retries     send attempts per message (1 = no retry)    (default 8)
//   --timeout     per-attempt airtime deadline in seconds;
//                 0 = wait out any stall                      (default 0)
//   --backoff     base backoff before the first retry (s)     (default 0.5)
//   --csv         print one machine-readable CSV line instead of the table
//   --metrics-json  enable observability and write the metrics registry
//                   (counters / gauges / stage histograms) as JSON to PATH
//   --trace         enable observability and write a chrome://tracing
//                   event file of the run's pipeline spans to PATH
//
// Serving-layer options (any of them routes the run through a
// serve::Cluster instead of the in-process serial server; results are
// byte-identical for every shard/thread count):
//   --shards         cluster shard count                       (default 1)
//   --server-threads requests the cluster executes at once     (default 1)
//   --queue-depth    admission bound before requests are shed  (default 256)
//   --data-dir       durability root: recover on start, write per-shard
//                    WALs during the run, checkpoint on exit; snapshots
//                    live in a segment store, PATH/segments unless
//                    --store-dir names another
//   --save-index PATH  save the binary index as a snapshot on exit
//   --load-index PATH  pre-seed the binary index from a snapshot
//
// Chunk-store options (enable the content-addressed segment store and the
// chunk-manifest upload plane, for either server mode):
//   --store-dir PATH   segment-store directory; uploads become chunked
//                      (dedup + partial-resend), and with --data-dir the
//                      shard snapshots route through the same store
//   --chunk-size B     chunk size in bytes                    (default 8192)
//   --progressive      encode upload payloads as progressive (v2) streams
//                      and ship each scan as its own chunk-manifest unit;
//                      requires --store-dir
//   --scans N          scans per progressive stream, 1..6; requires
//                      --progressive                          (default 4)
//
// Flag coherence: --load-index requires --data-dir (a warm start only
// makes sense against a durability root to recover into), --queue-depth
// requires --server-threads (the admission bound gates the cluster's
// execution slots), --chunk-size requires --store-dir (a chunking interval
// without a chunk store has nothing to apply to), --progressive requires
// --store-dir (scans ride the chunk-manifest plane), and --scans requires
// --progressive; incoherent combinations are rejected with a one-line
// error.  A run that fails (an unwritable --save-index path, a data dir
// that does not recover) prints `bees_sim: <reason>` and exits 1.
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/bees.hpp"
#include "core/simulation.hpp"
#include "index/persistence.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cluster.hpp"
#include "store/segment_store.hpp"
#include "util/table.hpp"

using namespace bees;

namespace {

struct Options {
  std::string scheme = "BEES";
  int images = 40;
  int similar = 4;
  double redundancy = 0.25;
  double bitrate_kbps = 256.0;
  double battery_pct = 100.0;
  int width = 320;
  int height = 240;
  std::uint64_t seed = 42;
  double loss = 0.0;
  double outage = 0.0;
  double outage_dur = 4.0;
  int retries = 8;
  double timeout_s = 0.0;
  double backoff_s = 0.5;
  bool csv = false;
  std::string metrics_json_path;
  std::string trace_path;
  // Serving layer: 0 / empty = legacy in-process serial server.
  int shards = 0;
  int server_threads = 0;
  int queue_depth = 0;
  std::string data_dir;
  std::string save_index_path;
  std::string load_index_path;
  std::string store_dir;
  int chunk_size = 0;  // 0 = default (only valid with --store-dir)
  bool progressive = false;
  int scans = 0;  // 0 = default (only valid with --progressive)

  bool use_cluster() const {
    return shards > 0 || server_threads > 0 || queue_depth > 0 ||
           !data_dir.empty();
  }
};

/// CSV columns: header label -> BatchReport named_values() row.
struct CsvColumn {
  const char* header;
  const char* value;
};

constexpr CsvColumn kCsvColumns[] = {
    {"images", "images_offered"},
    {"uploaded", "images_uploaded"},
    {"cross_elim", "eliminated_cross_batch"},
    {"inbatch_elim", "eliminated_in_batch"},
    {"image_bytes", "image_bytes"},
    {"feature_bytes", "feature_bytes"},
    {"rx_bytes", "rx_bytes"},
    {"energy_j", "energy_active_j"},
    {"busy_s", "busy_seconds"},
    {"mean_delay_s", "mean_delay_seconds"},
    {"aborted", "aborted"},
    {"retries", "retries"},
    {"retransmitted_bytes", "retransmitted_bytes"},
    {"gave_up", "gave_up"},
    // Chunk-upload plane counters (all 0 unless --store-dir); appended so
    // every pre-existing column keeps its position.
    {"chunks_sent", "chunks_sent"},
    {"chunks_deduped", "chunks_deduped"},
    {"chunks_resent", "chunks_resent"},
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scheme Direct|SmartEye|MRC|BEES|BEES-EA] [--images N]\n"
               "       [--similar N] [--redundancy R] [--bitrate KBPS]\n"
               "       [--battery PCT] [--width W] [--height H] [--seed S]\n"
               "       [--loss P] [--outage P] [--outage-dur S] [--retries N]\n"
               "       [--timeout S] [--backoff S] [--csv]\n"
               "       [--metrics-json PATH] [--trace PATH]\n"
               "       [--shards N] [--server-threads N] [--queue-depth N]\n"
               "       [--data-dir PATH] [--save-index PATH] [--load-index PATH]\n"
               "       [--store-dir PATH]\n"
               "       [--chunk-size BYTES] [--progressive] [--scans N]\n";
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](double& out) {
      if (i + 1 >= argc) return false;
      try {
        out = std::stod(argv[++i]);
      } catch (const std::exception&) {
        return false;  // not a number: a usage error, like a missing value
      }
      return true;
    };
    double v = 0;
    if (arg == "--scheme" && i + 1 < argc) {
      opt.scheme = argv[++i];
    } else if (arg == "--images" && next(v)) {
      opt.images = static_cast<int>(v);
    } else if (arg == "--similar" && next(v)) {
      opt.similar = static_cast<int>(v);
    } else if (arg == "--redundancy" && next(v)) {
      opt.redundancy = v;
    } else if (arg == "--bitrate" && next(v)) {
      opt.bitrate_kbps = v;
    } else if (arg == "--battery" && next(v)) {
      opt.battery_pct = v;
    } else if (arg == "--width" && next(v)) {
      opt.width = static_cast<int>(v);
    } else if (arg == "--height" && next(v)) {
      opt.height = static_cast<int>(v);
    } else if (arg == "--seed" && next(v)) {
      opt.seed = static_cast<std::uint64_t>(v);
    } else if (arg == "--loss" && next(v)) {
      opt.loss = v;
    } else if (arg == "--outage" && next(v)) {
      opt.outage = v;
    } else if (arg == "--outage-dur" && next(v)) {
      opt.outage_dur = v;
    } else if (arg == "--retries" && next(v)) {
      opt.retries = static_cast<int>(v);
    } else if (arg == "--timeout" && next(v)) {
      opt.timeout_s = v;
    } else if (arg == "--backoff" && next(v)) {
      opt.backoff_s = v;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--metrics-json" && i + 1 < argc) {
      opt.metrics_json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      opt.trace_path = argv[++i];
    } else if (arg == "--shards" && next(v)) {
      opt.shards = static_cast<int>(v);
    } else if (arg == "--server-threads" && next(v)) {
      opt.server_threads = static_cast<int>(v);
    } else if (arg == "--queue-depth" && next(v)) {
      opt.queue_depth = static_cast<int>(v);
    } else if (arg == "--data-dir" && i + 1 < argc) {
      opt.data_dir = argv[++i];
    } else if (arg == "--save-index" && i + 1 < argc) {
      opt.save_index_path = argv[++i];
    } else if (arg == "--load-index" && i + 1 < argc) {
      opt.load_index_path = argv[++i];
    } else if (arg == "--store-dir" && i + 1 < argc) {
      opt.store_dir = argv[++i];
    } else if (arg == "--chunk-size" && next(v)) {
      opt.chunk_size = static_cast<int>(v);
    } else if (arg == "--progressive") {
      opt.progressive = true;
    } else if (arg == "--scans" && next(v)) {
      opt.scans = static_cast<int>(v);
    } else {
      return false;
    }
  }
  return opt.images > 0 && opt.similar >= 0 && opt.similar <= opt.images &&
         opt.redundancy >= 0 && opt.redundancy <= 1 && opt.battery_pct > 0 &&
         opt.battery_pct <= 100 && opt.width >= 64 && opt.height >= 64 &&
         opt.loss >= 0 && opt.loss <= 1 && opt.outage >= 0 && opt.outage <= 1 &&
         opt.outage_dur > 0 && opt.retries >= 1 && opt.timeout_s >= 0 &&
         opt.backoff_s > 0 && opt.shards >= 0 && opt.server_threads >= 0 &&
         opt.queue_depth >= 0 && opt.chunk_size >= 0 &&
         (opt.scans == 0 || (opt.scans >= 1 && opt.scans <= 6));
}

int run(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) return usage(argv[0]);
  if (!opt.load_index_path.empty() && opt.data_dir.empty()) {
    std::cerr << "bees_sim: --load-index requires --data-dir (a snapshot "
                 "warm-starts the cluster's durability root)\n";
    return 2;
  }
  if (opt.queue_depth > 0 && opt.server_threads == 0) {
    std::cerr << "bees_sim: --queue-depth requires --server-threads (the "
                 "admission bound gates the cluster's execution slots)\n";
    return 2;
  }
  if (opt.chunk_size > 0 && opt.store_dir.empty()) {
    std::cerr << "bees_sim: --chunk-size requires --store-dir (a chunking "
                 "interval without a chunk store has nothing to apply to)\n";
    return 2;
  }
  if (opt.progressive && opt.store_dir.empty()) {
    std::cerr << "bees_sim: --progressive requires --store-dir (scans ship "
                 "as chunk-manifest units of the segment store)\n";
    return 2;
  }
  if (opt.scans > 0 && !opt.progressive) {
    std::cerr << "bees_sim: --scans shapes the progressive stream; add "
                 "--progressive\n";
    return 2;
  }

  // Observability is off (and free) unless an export was requested.
  const bool observe =
      !opt.metrics_json_path.empty() || !opt.trace_path.empty();
  if (observe) {
    obs::set_enabled(true);
    // Pre-declare the recovery/replication/relay counters at zero so a
    // metrics export always carries them — a clean run reports explicit
    // zeros rather than omitting the keys a dashboard selects on.
    for (const char* name :
         {"serve.wal.dropped_records", "serve.wal.dropped_bytes",
          "replica.ship.records", "replica.ship.bytes", "replica.failover",
          "replica.catch_up", "relay.forward.requests",
          "relay.forward.backhaul_bytes", "relay.dedup.chunks_hit",
          "relay.dedup.bytes_saved", "relay.hold.requests",
          "relay.drain.requests"}) {
      obs::count(name, 0.0);
    }
  }

  const wl::Imageset batch = wl::make_disaster_like(
      opt.images, opt.similar, opt.width, opt.height, opt.seed);
  wl::ImageStore store;

  // Calibrate payload bytes toward ~700 KB phone photos, as in the paper.
  double mean_original = 0;
  const std::size_t sample = std::min<std::size_t>(8, batch.images.size());
  for (std::size_t i = 0; i < sample; ++i) {
    mean_original += static_cast<double>(store.original(batch.images[i]).bytes);
  }
  mean_original /= static_cast<double>(sample);
  core::SchemeConfig config;
  config.image_byte_scale = 700.0 * 1024 / mean_original;
  config.retry.max_attempts = opt.retries;
  config.retry.backoff_base_s = opt.backoff_s;
  if (opt.timeout_s > 0) config.retry.timeout_s = opt.timeout_s;
  if (!opt.store_dir.empty()) {
    config.chunking.enabled = true;
    if (opt.chunk_size > 0) {
      config.chunking.chunk_size = static_cast<std::uint32_t>(opt.chunk_size);
    }
  }
  if (opt.progressive) {
    config.progressive.enabled = true;
    if (opt.scans > 0) config.progressive.scans = opt.scans;
  }

  std::unique_ptr<core::UploadScheme> scheme;
  std::shared_ptr<feat::PcaModel> pca;
  if (opt.scheme == "Direct") {
    scheme = std::make_unique<core::DirectUploadScheme>(store, config);
  } else if (opt.scheme == "SmartEye") {
    pca = std::make_shared<feat::PcaModel>(
        core::train_pca_model(store, batch, 4));
    scheme = std::make_unique<core::SmartEyeScheme>(store, config, pca);
  } else if (opt.scheme == "MRC") {
    scheme = std::make_unique<core::MrcScheme>(store, config);
  } else if (opt.scheme == "BEES") {
    scheme = std::make_unique<core::BeesScheme>(store, config, true);
  } else if (opt.scheme == "BEES-EA") {
    scheme = std::make_unique<core::BeesScheme>(store, config, false);
  } else {
    return usage(argv[0]);
  }

  cloud::Server server;
  std::unique_ptr<store::SegmentStore> chunk_store;  // serial-server mode
  std::unique_ptr<serve::Cluster> cluster;
  if (opt.use_cluster()) {
    serve::ClusterOptions cluster_options;
    cluster_options.shards = std::max(1, opt.shards);
    cluster_options.threads = std::max(1, opt.server_threads);
    if (opt.queue_depth > 0) {
      cluster_options.queue_depth = static_cast<std::size_t>(opt.queue_depth);
    }
    cluster_options.data_dir = opt.data_dir;
    if (!opt.store_dir.empty()) {
      cluster_options.segment_store.dir = opt.store_dir;
      cluster_options.segment_store.chunk_size = config.chunking.chunk_size;
    }
    cluster = std::make_unique<serve::Cluster>(cluster_options);
    // Every exchange of the run now rides the cluster's admission gate and
    // runs cloud::dispatch against the cluster on the scheme's thread.
    scheme->set_server_handler(cluster->handler());
  } else if (!opt.store_dir.empty()) {
    store::SegmentStoreOptions store_options;
    store_options.dir = opt.store_dir;
    store_options.chunk_size = config.chunking.chunk_size;
    chunk_store = std::make_unique<store::SegmentStore>(store_options);
    server.attach_chunk_store(chunk_store.get());
  }
  if (!opt.load_index_path.empty()) {
    const idx::FeatureIndex loaded =
        idx::load_index_snapshot(opt.load_index_path);
    if (cluster) {
      cluster->preload_binary(loaded);
    } else {
      for (std::size_t i = 0; i < loaded.image_count(); ++i) {
        const auto id = static_cast<idx::ImageId>(i);
        server.seed_binary(loaded.features_of(id), loaded.geo_of(id));
      }
    }
  }
  if (opt.redundancy > 0) {
    // SmartEye needs the float index seeded too.
    if (!pca && opt.scheme == "SmartEye") {
      pca = std::make_shared<feat::PcaModel>(
          core::train_pca_model(store, batch, 4));
    }
    if (cluster) {
      core::seed_cross_batch_redundancy(batch.images, opt.redundancy, store,
                                        *cluster, pca.get(), opt.seed ^ 0x5eed,
                                        config.image_byte_scale);
    } else {
      core::seed_cross_batch_redundancy(batch.images, opt.redundancy, store,
                                        server, pca.get(), opt.seed ^ 0x5eed,
                                        config.image_byte_scale);
    }
  }
  net::ChannelParams chan_params =
      opt.bitrate_kbps > 0 ? net::ChannelParams::fixed(opt.bitrate_kbps * 1000)
                           : net::ChannelParams{};
  chan_params.loss_probability = opt.loss;
  chan_params.outage_probability = opt.outage;
  chan_params.outage_duration_s = opt.outage_dur;
  net::Channel channel(chan_params);
  energy::Battery battery;
  battery.drain(battery.capacity_j() * (1.0 - opt.battery_pct / 100.0));

  const core::BatchReport r =
      scheme->upload_batch(batch.images, server, channel, battery);

  if (!opt.save_index_path.empty()) {
    // Two calls, not one over a conditional: the index is move-only, and
    // the serial server's is saved where it lives.
    if (cluster) {
      idx::save_index_snapshot(cluster->merged_binary_index(),
                               opt.save_index_path);
    } else {
      idx::save_index_snapshot(server.binary_index(), opt.save_index_path);
    }
  }
  // Leave durable state checkpointed so the next run recovers from
  // snapshots instead of replaying the whole WAL.
  if (cluster && !opt.data_dir.empty()) cluster->checkpoint();

  if (observe) {
    r.export_metrics("sim.batch");
    if (!opt.metrics_json_path.empty()) {
      std::ofstream out(opt.metrics_json_path);
      out << obs::MetricsRegistry::global().to_json() << '\n';
    }
    if (!opt.trace_path.empty()) {
      std::ofstream out(opt.trace_path);
      out << obs::Tracer::global().to_chrome_json() << '\n';
    }
  }

  if (opt.csv) {
    const std::vector<core::NamedValue> values = r.named_values();
    auto row_of = [&](const char* name) -> const core::NamedValue& {
      for (const core::NamedValue& v : values) {
        if (std::strcmp(v.name, name) == 0) return v;
      }
      throw std::out_of_range(std::string("no CSV source row: ") + name);
    };
    std::cout << "scheme";
    for (const CsvColumn& col : kCsvColumns) std::cout << ',' << col.header;
    std::cout << '\n' << scheme->name();
    for (const CsvColumn& col : kCsvColumns) {
      const core::NamedValue& v = row_of(col.value);
      std::cout << ',';
      if (v.integral) {
        std::cout << static_cast<long long>(v.value);
      } else {
        std::cout << v.value;
      }
    }
    std::cout << '\n';
    return 0;
  }

  util::Table table({"metric", "value"});
  table.add_row({"scheme", scheme->name()});
  table.add_row({"images offered", std::to_string(r.images_offered)});
  table.add_row({"images uploaded", std::to_string(r.images_uploaded)});
  table.add_row({"cross-batch eliminated",
                 std::to_string(r.eliminated_cross_batch)});
  table.add_row({"in-batch eliminated",
                 std::to_string(r.eliminated_in_batch)});
  table.add_row({"image payload", util::Table::num(r.image_bytes / 1024, 1) +
                                      " KB"});
  table.add_row({"feature payload",
                 util::Table::num(r.feature_bytes / 1024, 1) + " KB"});
  table.add_row({"feedback payload",
                 util::Table::num(r.rx_bytes / 1024, 1) + " KB"});
  table.add_row({"active energy",
                 util::Table::num(r.energy.active_total(), 1) + " J"});
  table.add_row({"  extraction",
                 util::Table::num(r.energy.extraction_j, 1) + " J"});
  table.add_row({"  image TX", util::Table::num(r.energy.image_tx_j, 1) + " J"});
  table.add_row({"busy time", util::Table::num(r.busy_seconds(), 1) + " s"});
  table.add_row({"mean delay / image",
                 util::Table::num(r.mean_delay_seconds(), 2) + " s"});
  table.add_row({"retries", std::to_string(r.retries)});
  table.add_row({"retransmitted payload",
                 util::Table::num(r.retransmitted_bytes / 1024, 1) + " KB"});
  table.add_row({"  retransmit airtime",
                 util::Table::num(r.retransmit_seconds, 1) + " s"});
  table.add_row({"  backoff time",
                 util::Table::num(r.backoff_seconds, 1) + " s"});
  table.add_row({"exchanges given up", std::to_string(r.gave_up)});
  table.add_row({"battery left", util::Table::pct(battery.fraction())});
  table.add_row({"aborted", r.aborted ? "yes" : "no"});
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bees_sim: " << e.what() << '\n';
    return 1;
  }
}
