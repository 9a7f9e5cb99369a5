// Query phase: encoded CBRD binary queries (net::encode_binary_query) sent
// to Cluster::handle, with a fixed 1-in-20 share of image-upload envelopes.
// The cluster uses the library's default index and cluster parameters with
// 4 shards, 4 worker threads and serial rescoring, pre-seeded with real ORB
// features of 800 rendered views.
//
// Each round runs two load shapes back to back: a closed-loop window of
// kLoadThreads clients (CPU cost and throughput), then an open-loop slice
// with Poisson arrivals at a fixed rate, each request timed from when it
// was due (latency).  Replies to a sample of queries, taken before any
// write, must be byte-identical to cloud::dispatch on a serial
// cloud::Server seeded the same way.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cloud/rpc.hpp"
#include "features/orb.hpp"
#include "net/protocol.hpp"
#include "obs/json.hpp"
#include "serve/cluster.hpp"
#include "util/rng.hpp"
#include "workload/imageset.hpp"

namespace perfbench {
namespace {

using namespace bees;

constexpr int kSeedScenes = 200;
constexpr int kViewsPerScene = 4;
constexpr int kWidth = 160;
constexpr int kHeight = 120;
constexpr int kQueryPool = 256;
constexpr int kUploadPool = 64;
/// Every kWriteEvery-th request is an image upload.
constexpr std::uint64_t kWriteEvery = 20;
/// Queries checked against the serial reference and used for the unloaded
/// and per-index-layer probes.
constexpr int kSample = 48;
constexpr double kQueryFeatureBytes = 9'000.0;
constexpr double kUploadImageBytes = 700.0 * 1024.0;
constexpr double kThumbnailBytes = 11'000.0;
constexpr int kSetups = 7;

/// ORB features of every spec, rendered and extracted on kLoadThreads
/// threads.
std::vector<feat::BinaryFeatures> extract_all(
    const std::vector<wl::ImageSpec>& specs) {
  std::vector<feat::BinaryFeatures> out(specs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kLoadThreads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < specs.size(); i = next++) {
        out[i] = feat::extract_orb(specs[i].render());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return out;
}

serve::ClusterOptions cluster_options() {
  serve::ClusterOptions o;  // library defaults apart from the shape...
  o.shards = 4;
  o.threads = 4;
  // ...and serial rescoring.  The default gives each shard's index a pool
  // of one thread per core: 16 rescore threads, 4 workers and 4 clients on
  // 4 cores, which makes throughput track host contention (123-437 req/s
  // across minutes for one seed) instead of the code.
  o.binary_params.rescore_threads = 1;
  return o;
}

/// Outcome of one load loop.
struct LoadOut {
  std::vector<double> query_latency_s;
  std::vector<double> upload_latency_s;
  std::vector<double> lateness_s;
  std::uint64_t requests = 0;
  std::uint64_t sheds = 0;
  std::uint64_t errors = 0;

  void tally(const std::vector<std::uint8_t>& reply) {
    ++requests;
    if (reply.empty() ||
        static_cast<net::MessageType>(reply[0]) != net::MessageType::kError) {
      return;
    }
    try {
      const std::string what =
          net::decode_error(net::open_envelope(reply).payload);
      (what == serve::kShedErrorMessage ? sheds : errors) += 1;
    } catch (const std::exception&) {
      ++errors;
    }
  }

  void merge(const LoadOut& p) {
    query_latency_s.insert(query_latency_s.end(), p.query_latency_s.begin(),
                           p.query_latency_s.end());
    upload_latency_s.insert(upload_latency_s.end(),
                            p.upload_latency_s.begin(),
                            p.upload_latency_s.end());
    lateness_s.insert(lateness_s.end(), p.lateness_s.begin(),
                      p.lateness_s.end());
    requests += p.requests;
    sheds += p.sheds;
    errors += p.errors;
  }
};

class QueryPhase final : public Phase {
 public:
  QueryPhase(const Args& args, const Shape& shape, Results& results,
             Spans& spans)
      : args_(args), results_(results), spans_(spans) {
    const auto g0 = Clock::now();
    make_inputs(shape);
    note("query: inputs generated in " +
         obs::json_number(seconds_between(g0, Clock::now())) + " s");

    // Set-up: construction + seeding, repeated; the fastest is reported and
    // the last cluster serves.
    std::vector<double> setups;
    for (int r = 0; r < kSetups; ++r) {
      cluster_.reset();
      const double c0 = process_cpu_s();
      cluster_ = std::make_unique<serve::Cluster>(cluster_options());
      for (const feat::BinaryFeatures& f : seeds_) {
        cluster_->seed_binary(f, {}, kThumbnailBytes);
      }
      setups.push_back(process_cpu_s() - c0);
    }
    results_.metric("query.setup_s", least(setups), "s");
    check_against_reference();
    if (args_.trace) probe_layers();
  }

  void round() override {
    const bool traced = spans_.on();
    const double seconds = args_.seconds;
    const double c0 = process_cpu_s();
    const std::uint64_t before = closed_.requests;
    qps_.add(traced, closed_loop(0.05 * seconds));
    cpu_ms_.add(traced, 1e3 * (process_cpu_s() - c0) /
                            static_cast<double>(closed_.requests - before));
    const LoadOut open =
        open_loop(0.075 * seconds, mix_seed(args_.seed, 104, ++rounds_));
    const Summary q = summarize(open.query_latency_s);
    p50_.add(traced, q.p50);
    tail_.add(traced, q.tail);
    tail_pct_ = q.tail_pct;
    if (traced) {
      traced_uploads_.insert(traced_uploads_.end(),
                             open.upload_latency_s.begin(),
                             open.upload_latency_s.end());
    }
    open_.merge(open);
  }

  void finish() override {
    const Summary lag = summarize(open_.lateness_s);
    const double max_lag =
        open_.lateness_s.empty()
            ? 0.0
            : *std::max_element(open_.lateness_s.begin(),
                                open_.lateness_s.end());
    results_.metric("query_cpu_ms", cpu_ms_.value(), "ms");
    results_.metric("query_qps", qps_.value(), "req/s");
    results_.metric("query_p50_ms", 1e3 * p50_.value(), "ms");
    results_.metric("query_tail_ms", 1e3 * tail_.value(), "ms");
    results_.metric("query.generator_lag_p50_ms", 1e3 * lag.p50, "ms");
    results_.metric("query.generator_lag_max_ms", 1e3 * max_lag, "ms");
    note("query: closed loop " + obs::json_number(qps_.value()) +
         " req/s; open loop at " + obs::json_number(args_.open_rate) +
         " req/s, " + std::to_string(open_.query_latency_s.size()) +
         " queries, per-slice tail at p" + obs::json_number(tail_pct_) +
         ", generator lag p50 " + obs::json_number(1e3 * lag.p50) +
         " ms, max " + obs::json_number(1e3 * max_lag) + " ms");
    if (max_lag > args_.max_lag_s) {
      results_.invalidate("open-loop generator fell " +
                          obs::json_number(max_lag) + " s behind (bound " +
                          obs::json_number(args_.max_lag_s) + " s)");
    }

    const std::uint64_t attempted = kSample + closed_.requests + open_.requests;
    const std::uint64_t failed =
        closed_.sheds + closed_.errors + open_.sheds + open_.errors;
    results_.attempts(attempted, failed);
    results_.metric("query.error_rate",
                    static_cast<double>(failed) /
                        static_cast<double>(attempted),
                    "fraction");
    results_.metric("serve.shed_frac",
                    static_cast<double>(cluster_->shed_count()) /
                        static_cast<double>(attempted),
                    "fraction");
    if (qps_.traced.empty()) return;

    const double service_s = median(spans_.durations("serve.service"));
    results_.metric("serve.service_ms", 1e3 * service_s, "ms");
    results_.metric("serve.wait_ms",
                    1e3 * (median(p50_.traced) - service_s), "ms");
    results_.metric("serve.store_ms", 1e3 * median(traced_uploads_), "ms");
    results_.metric("net.encode_us",
                    1e6 * median(spans_.durations("net.encode")), "us");
    results_.metric("index.candidates_us",
                    1e6 * median(spans_.durations("index.candidates")), "us");
    results_.metric("index.rescore_us",
                    1e6 * median(spans_.durations("index.rescore")), "us");
    results_.metric("trace.query_overhead_frac", cpu_ms_.overhead(),
                    "fraction");
  }

 private:
  bool is_upload(std::uint64_t i) const {
    return i % kWriteEvery == kWriteEvery - 1;
  }
  const std::vector<std::uint8_t>& request(std::uint64_t i) const {
    return is_upload(i) ? uploads_[(i / kWriteEvery) % uploads_.size()]
                        : queries_[i % queries_.size()];
  }

  void make_inputs(const Shape& shape) {
    const wl::Imageset seeded =
        wl::make_kentucky_like(kSeedScenes, kViewsPerScene, kWidth, kHeight,
                               mix_seed(args_.seed, 100));
    std::vector<wl::ImageSpec> query_specs;
    if (shape.redundant) {
      // Near-duplicates of seeded views: every query re-finds its scene.
      util::Rng rng(mix_seed(args_.seed, 101));
      for (int q = 0; q < kQueryPool; ++q) {
        const auto& base = seeded.images[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(seeded.images.size()) -
                                   1))];
        query_specs.push_back(wl::make_near_duplicate(base, rng.next_u64()));
      }
    } else {
      query_specs = wl::make_kentucky_like(kQueryPool, 1, kWidth, kHeight,
                                           mix_seed(args_.seed, 102))
                        .images;
    }
    const std::vector<wl::ImageSpec> upload_specs =
        wl::make_kentucky_like(kUploadPool, 1, kWidth, kHeight,
                               mix_seed(args_.seed, 103))
            .images;

    seeds_ = extract_all(seeded.images);
    query_features_ = extract_all(query_specs);
    for (const feat::BinaryFeatures& f : query_features_) {
      queries_.push_back(
          net::encode_binary_query(f, idx::kDefaultTopK, kQueryFeatureBytes));
    }
    for (const feat::BinaryFeatures& f : extract_all(upload_specs)) {
      uploads_.push_back(
          net::encode_image_upload(f, kUploadImageBytes, {}, kThumbnailBytes));
    }
  }

  /// A sample of replies, before any write, byte-identical to the serial
  /// reference server seeded the same way.
  void check_against_reference() {
    cloud::Server reference(cluster_options().binary_params,
                            cluster_options().float_params);
    for (const feat::BinaryFeatures& f : seeds_) {
      reference.seed_binary(f, {}, kThumbnailBytes);
    }
    int same = 0;
    for (int q = 0; q < kSample; ++q) {
      const auto& req = queries_[static_cast<std::size_t>(q)];
      same += cluster_->handle(req) == cloud::dispatch(reference, req);
    }
    results_.check("query_replies_match_serial_server", same == kSample,
                   std::to_string(same) + " of " + std::to_string(kSample) +
                       " replies identical");
  }

  /// Unloaded and single-threaded layer probes on the freshly seeded
  /// cluster (before any write): one-client handle time, request
  /// encoding, and the index's candidate and rescore stages on the merged
  /// index.
  void probe_layers() {
    const bool was_on = spans_.on();
    spans_.enable(true);
    for (int q = 0; q < kSample; ++q) {
      const auto t0 = Clock::now();
      cluster_->handle(queries_[static_cast<std::size_t>(q)]);
      spans_.add("serve.service", "serve", t0, Clock::now(), 40);
    }
    for (int q = 0; q < kSample; ++q) {
      const auto t0 = Clock::now();
      const auto bytes = net::encode_binary_query(
          query_features_[static_cast<std::size_t>(q)], idx::kDefaultTopK,
          kQueryFeatureBytes);
      spans_.add("net.encode", "net", t0, Clock::now(), 40);
    }
    const idx::FeatureIndex merged = cluster_->merged_binary_index();
    double candidates = 0;
    for (int q = 0; q < kSample; ++q) {
      const feat::BinaryFeatures& f =
          query_features_[static_cast<std::size_t>(q)];
      const auto t0 = Clock::now();
      const auto ranked = merged.candidates(f);
      const auto t1 = Clock::now();
      std::vector<idx::ImageId> ids;
      for (const auto& [id, score] : ranked) ids.push_back(id);
      merged.rescore(f, ids, idx::kDefaultTopK);
      const auto t2 = Clock::now();
      spans_.add("index.candidates", "index", t0, t1, 40);
      spans_.add("index.rescore", "index", t1, t2, 40);
      candidates += static_cast<double>(ids.size());
    }
    results_.metric("index.candidates_per_query", candidates / kSample,
                    "count");
    spans_.enable(was_on);
  }

  /// Closed loop: kLoadThreads clients each send their next request as
  /// soon as the previous reply arrives, for `duration_s`.  Returns
  /// requests/second.
  double closed_loop(double duration_s) {
    std::atomic<bool> stop{false};
    std::vector<LoadOut> parts(kLoadThreads);
    const auto start = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kLoadThreads; ++c) {
      clients.emplace_back([&, c] {
        LoadOut& mine = parts[static_cast<std::size_t>(c)];
        while (!stop.load(std::memory_order_relaxed)) {
          const std::uint64_t i = next_request_++;
          const auto t0 = Clock::now();
          const std::vector<std::uint8_t> reply = cluster_->handle(request(i));
          spans_.add(is_upload(i) ? "serve.closed_upload" : "serve.closed_query",
                     "serve", t0, Clock::now(),
                     static_cast<std::uint32_t>(20 + c));
          mine.tally(reply);
        }
      });
    }
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(duration_s)));
    stop = true;
    for (std::thread& t : clients) t.join();
    const double elapsed = seconds_between(start, Clock::now());
    std::uint64_t requests = 0;
    for (const LoadOut& p : parts) {
      closed_.merge(p);
      requests += p.requests;
    }
    return static_cast<double>(requests) / elapsed;
  }

  /// Open loop: Poisson arrivals at the fixed rate for `duration_s`, served
  /// by kLoadThreads senders.  Latency runs from each request's due time,
  /// so a stalled sender charges its wait to the requests queued behind it.
  LoadOut open_loop(double duration_s, std::uint64_t seed) {
    std::vector<double> due;
    util::Rng rng(seed);
    for (double t = rng.exponential(args_.open_rate); t < duration_s;
         t += rng.exponential(args_.open_rate)) {
      due.push_back(t);
    }
    const std::uint64_t base = next_request_;
    next_request_ += due.size();
    std::atomic<std::size_t> next{0};
    std::vector<LoadOut> parts(kLoadThreads);
    const auto start = Clock::now();
    std::vector<std::thread> senders;
    for (int c = 0; c < kLoadThreads; ++c) {
      senders.emplace_back([&, c] {
        LoadOut& mine = parts[static_cast<std::size_t>(c)];
        for (std::size_t k = next++; k < due.size(); k = next++) {
          const std::uint64_t i = base + k;
          const auto target =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(due[k]));
          std::this_thread::sleep_until(target);
          const auto sent = Clock::now();
          const std::vector<std::uint8_t> reply = cluster_->handle(request(i));
          const auto done = Clock::now();
          spans_.add(is_upload(i) ? "serve.open_upload" : "serve.open_query",
                     "serve", target, done,
                     static_cast<std::uint32_t>(30 + c));
          mine.lateness_s.push_back(seconds_between(target, sent));
          (is_upload(i) ? mine.upload_latency_s : mine.query_latency_s)
              .push_back(seconds_between(target, done));
          mine.tally(reply);
        }
      });
    }
    for (std::thread& t : senders) t.join();
    LoadOut all;
    for (const LoadOut& p : parts) all.merge(p);
    return all;
  }

  const Args& args_;
  Results& results_;
  Spans& spans_;

  std::vector<feat::BinaryFeatures> seeds_;
  std::vector<feat::BinaryFeatures> query_features_;
  std::vector<std::vector<std::uint8_t>> queries_;
  std::vector<std::vector<std::uint8_t>> uploads_;
  std::unique_ptr<serve::Cluster> cluster_;

  std::atomic<std::uint64_t> next_request_{0};
  std::uint64_t rounds_ = 0;
  RoundValues cpu_ms_;  ///< Process CPU time per closed-loop request.
  RoundValues qps_;
  RoundValues p50_;
  RoundValues tail_;
  double tail_pct_ = 0.0;
  LoadOut closed_;
  LoadOut open_;
  std::vector<double> traced_uploads_;
};

}  // namespace

std::unique_ptr<Phase> make_query_phase(const Args& args, const Shape& shape,
                                        Results& results, Spans& spans) {
  return std::make_unique<QueryPhase>(args, shape, results, spans);
}

}  // namespace perfbench
