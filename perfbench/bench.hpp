// Shared plumbing of the end-to-end benchmark: run arguments, the result
// sink every phase writes its metrics and correctness checks into, span
// recording around the benchmark's own calls into each library layer, and
// small statistics helpers.
//
// The benchmark never instruments the library: every span it records
// brackets a public call the benchmark itself makes (upload_batch, a
// wrapped server handler, Cluster::handle, FeatureIndex::candidates, ...).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Load-generating threads: simulated devices, query clients, fleet
/// workers.  Fixed, so a seed gives the same inputs on any machine.
inline constexpr int kLoadThreads = 4;

/// Measurement rounds per run.  Traced runs alternate untraced and traced
/// rounds, so the untraced ones are the reference for the tracing overhead.
inline constexpr int kRounds = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 16.0;
  bool trace = false;
  std::string tmp_dir;    ///< Fresh per-run root for durable state.
  std::string trace_out;  ///< Chrome trace file written by traced runs.
  // Fixed settings, recorded only in perfbench/config.json: the driver has
  // no defaults for them and refuses to start unless each is given.
  double open_rate = 0.0;        ///< Open-loop arrival rate (requests/s).
  double max_lag_s = 0.0;        ///< Generator lag bound for a valid run.
  std::uint64_t fleet_ref_seed = 0;
  std::string fleet_ref_digest;  ///< Recorded reference fleet digest.
};

/// The two input shapes.  `redundant` gives captures near-duplicates of
/// pre-seeded images plus in-batch similar views, queries that re-find
/// seeded scenes, and a fleet whose devices crowd few locations;
/// `distinct` gives none of that, so elimination and dedup find nothing.
struct Shape {
  bool redundant = true;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run produces: metrics (e2e and per-layer, selected by the
/// caller), correctness checks, and the attempt/failure tally.
class Results {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok, const std::string& detail);
  void attempts(std::uint64_t attempted, std::uint64_t failed);
  /// Marks the run invalid (its numbers must not be reported).
  void invalidate(const std::string& why);

  bool all_ok() const;
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool valid() const { return invalid_.empty(); }
  const std::string& invalid_reason() const { return invalid_; }
  /// Last value recorded under `name`; throws if absent.
  double value(const std::string& name) const;
  /// The final result line: {"correct","attempted","failed","metrics"}.
  std::string to_json() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string invalid_;
};

/// Span recorder owned by the benchmark.  Inert unless enabled; spans are
/// kept in memory and written out once at the end of the run.
class Spans {
 public:
  explicit Spans(Clock::time_point origin) : origin_(origin) {}

  void enable(bool on) { on_ = on; }
  bool on() const { return on_; }

  /// Records [start, end) as a span of layer `layer` on lane `lane`.
  void add(const char* name, const char* layer, Clock::time_point start,
           Clock::time_point end, std::uint32_t lane);

  /// Durations (seconds) of every span named `name`.
  std::vector<double> durations(const std::string& name) const;
  std::size_t size() const { return tracer_.size(); }
  std::string to_chrome_json() const { return tracer_.to_chrome_json(); }

 private:
  Clock::time_point origin_;
  bool on_ = false;
  bees::obs::Tracer tracer_;
};

/// Median and tail of a latency sample.  The tail is the highest
/// percentile that still has at least ten samples beyond it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< Percentile the tail was read at.
};
Summary summarize(std::vector<double> values);
double median(std::vector<double> values);
/// Least value (0 for none).  Set-up is timed as the fastest of several
/// repetitions, since interference only ever adds time.
double least(const std::vector<double>& values);

/// Per-round values of one statistic, split by whether the round was
/// traced: end-to-end numbers come from untraced rounds only, and the
/// traced/untraced ratio is the tracing overhead.
struct RoundValues {
  std::vector<double> untraced;
  std::vector<double> traced;

  void add(bool was_traced, double v) {
    (was_traced ? traced : untraced).push_back(v);
  }
  double value() const { return median(untraced); }
  /// Traced median over untraced median, minus one (0 without both).
  double overhead() const;
};

/// CPU time every thread of this process has used, in seconds.  Unlike
/// wall time it leaves out time the hypervisor gave to other guests, which
/// on a shared host swings from 0% to over 20% between runs.
double process_cpu_s();

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb();
/// Returns freed heap memory to the system, restarts the VmHWM peak from
/// the current resident set, and returns that resident set (VmRSS) in MB.
double reset_peak_rss();

/// Deterministic 64-bit mix of a seed with up to two salts.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// One line of human-readable detail on stdout (never the last line).
void note(const std::string& line);

/// One part of the pipeline under load.  Construction generates the inputs
/// and times the system's set-up calls; the driver then interleaves the
/// phases' measurement rounds, so a spell of host contention spoils one
/// round of each phase instead of one whole phase, and every timing metric
/// is a median (the fleet's wall time: the fastest) over rounds.  Spans are
/// on during traced rounds.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void round() = 0;
  /// Checks, teardown and the phase's metrics, after the last round.
  virtual void finish() = 0;
};

std::unique_ptr<Phase> make_capture_phase(const Args& args, const Shape& shape,
                                          int rounds, Results& results,
                                          Spans& spans);
std::unique_ptr<Phase> make_query_phase(const Args& args, const Shape& shape,
                                        Results& results, Spans& spans);
std::unique_ptr<Phase> make_fleet_phase(const Args& args, const Shape& shape,
                                        Results& results);

}  // namespace perfbench
