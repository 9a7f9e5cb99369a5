// End-to-end benchmark driver.  One run drives the whole BEES pipeline
// through three phases against the real library — capture (device pipeline
// into a durable replicated cluster), query (CBRD query storm against a
// seeded cluster) and fleet (the deterministic disaster fleet) — in
// kRounds interleaved measurement rounds, and prints every metric with its
// unit plus the outcome of every correctness check.  The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//   bees_perfbench --workload redundant|distinct --seed N --seconds S
//                  --trace 0|1 --tmp DIR --open-rate R --max-lag S
//                  --fleet-ref-seed N --fleet-ref-digest HEX
//                  [--trace-out FILE]
//
// run.py passes the fixed settings from perfbench/config.json.  Timings
// are CPU costs (see process_cpu_s) and wall-clock latency and throughput,
// each a median over rounds, except the fleet's wall time, which is its
// fastest round.
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on bad
// arguments, 3 when the run is invalid (the open-loop generator fell
// behind its schedule by more than --max-lag).
#include <algorithm>
#include <ctime>
#include <fstream>
#include <malloc.h>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "features/simd.hpp"
#include "obs/json.hpp"

namespace perfbench {

void Results::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Results::check(const std::string& name, bool ok,
                    const std::string& detail) {
  checks_.emplace_back(name, ok);
  note(std::string("check ") + name + ": " + (ok ? "ok" : "FAILED") +
       (detail.empty() ? "" : " (" + detail + ")"));
}

void Results::attempts(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Results::invalidate(const std::string& why) {
  if (invalid_.empty()) invalid_ = why;
}

bool Results::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const auto& c) { return c.second; });
}

double Results::value(const std::string& name) const {
  for (auto it = metrics_.rbegin(); it != metrics_.rend(); ++it) {
    if (it->name == name) return it->value;
  }
  throw std::out_of_range("no metric " + name);
}

std::string Results::to_json() const {
  std::ostringstream out;
  out << "{\"correct\": " << (all_ok() ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ", " : "") << bees::obs::json_string(m.name)
        << ": {\"value\": " << bees::obs::json_number(m.value)
        << ", \"unit\": " << bees::obs::json_string(m.unit) << "}";
  }
  out << "}}";
  return out.str();
}

void Spans::add(const char* name, const char* layer, Clock::time_point start,
                Clock::time_point end, std::uint32_t lane) {
  if (!on_) return;
  tracer_.add({name, layer, seconds_between(origin_, start),
               seconds_between(start, end), lane});
}

std::vector<double> Spans::durations(const std::string& name) const {
  std::vector<double> out;
  for (const bees::obs::TraceEvent& e : tracer_.events()) {
    if (e.name == name) out.push_back(e.duration_s);
  }
  return out;
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = median(values);
  // Highest order statistic with >= 10 samples above it; falls back to the
  // maximum for samples too small to have one.
  const std::size_t idx = s.n > 10 ? s.n - 11 : s.n - 1;
  s.tail = values[idx];
  s.tail_pct = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(s.n);
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double least(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// Host CPU time stolen from this machine since boot, and total CPU time,
/// in clock ticks (the aggregate "cpu" line of /proc/stat).
std::pair<double, double> host_steal_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0,
         softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >>
      steal;
  return {steal, user + nice + system + idle + iowait + irq + softirq + steal};
}

/// A "Vm...:" line of /proc/self/status, in MB.
double status_mb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      return std::stod(line.substr(key.size())) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

}  // namespace

double reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mb("VmRSS:");
}

double RoundValues::overhead() const {
  if (untraced.empty() || traced.empty()) return 0.0;
  return median(traced) / median(untraced) - 1.0;
}

double peak_rss_mb() { return status_mb("VmHWM:"); }

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the combined words.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull ^ (a + 0x632be59bd9b4e019ull) ^
                    (b * 0xbf58476d1ce4e5b9ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void note(const std::string& line) { std::cout << "# " << line << '\n'; }

namespace {

std::string compiler() {
#if defined(__clang__)
  return std::string("clang-") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc-") + __VERSION__;
#else
  return "unknown";
#endif
}

int usage() {
  std::cerr << "usage: bees_perfbench --workload redundant|distinct --seed N "
               "--seconds S --trace 0|1 --tmp DIR --open-rate R --max-lag S "
               "--fleet-ref-seed N --fleet-ref-digest HEX "
               "[--trace-out FILE]\n";
  return 2;
}

bool parse(int argc, char** argv, Args& a) {
  std::set<std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    given.insert(arg);
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--tmp") {
      a.tmp_dir = v;
    } else if (arg == "--trace-out") {
      a.trace_out = v;
    } else if (arg == "--open-rate") {
      a.open_rate = std::stod(v);
    } else if (arg == "--max-lag") {
      a.max_lag_s = std::stod(v);
    } else if (arg == "--fleet-ref-seed") {
      a.fleet_ref_seed = std::stoull(v);
    } else if (arg == "--fleet-ref-digest") {
      a.fleet_ref_digest = v;
    } else {
      return false;
    }
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--tmp", "--open-rate",
        "--max-lag", "--fleet-ref-seed", "--fleet-ref-digest"}) {
    if (!given.count(required)) return false;
  }
  return (a.workload == "redundant" || a.workload == "distinct") &&
         !a.tmp_dir.empty() && a.seconds > 0 && a.open_rate > 0 &&
         a.max_lag_s > 0 && !a.fleet_ref_digest.empty();
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    if (!parse(argc, argv, args)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  Shape shape;
  shape.redundant = args.workload == "redundant";

  note("stamp: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
       " load_threads=" + std::to_string(kLoadThreads) + " isa=" +
       bees::feat::simd_isa_name(bees::feat::active_simd_isa()) +
       " compiler=" + compiler() + " build=" + BEES_PERFBENCH_BUILD_TYPE +
       " workload=" + args.workload + " seed=" + std::to_string(args.seed) +
       " seconds=" + bees::obs::json_number(args.seconds) +
       " rounds=" + std::to_string(kRounds) +
       " trace=" + (args.trace ? "1" : "0"));

  Results results;
  Spans spans(Clock::now());
  try {
    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(make_capture_phase(args, shape, kRounds, results, spans));
    phases.push_back(make_query_phase(args, shape, results, spans));
    phases.push_back(make_fleet_phase(args, shape, results));
    // The inputs (pre-rendered pixels, query corpora) and the set-up
    // clusters are resident by now; the peak reported is what the rounds
    // add on top of them.
    const double baseline_mb = reset_peak_rss();
    std::vector<double> busy(phases.size(), 0.0);
    const auto [steal0, total0] = host_steal_ticks();
    for (int r = 0; r < kRounds; ++r) {
      spans.enable(args.trace && r % 2 == 1);
      for (std::size_t p = 0; p < phases.size(); ++p) {
        const auto t0 = Clock::now();
        phases[p]->round();
        busy[p] += seconds_between(t0, Clock::now());
      }
    }
    spans.enable(false);
    const double peak_mb = peak_rss_mb();
    results.metric("peak_rss_mb", peak_mb - baseline_mb, "MB");
    note("memory: peak " + bees::obs::json_number(peak_mb) +
         " MB resident, " + bees::obs::json_number(baseline_mb) +
         " MB of it inputs and set-up before the rounds");
    const auto [steal1, total1] = host_steal_ticks();
    // Time the hypervisor gave to other guests: wall-clock numbers of a run
    // measured while it was high are slow for reasons outside the code.
    const double steal_pct =
        total1 > total0 ? 100.0 * (steal1 - steal0) / (total1 - total0) : 0.0;
    results.metric("host.steal_pct", steal_pct, "%");
    note("rounds: capture " + bees::obs::json_number(busy[0]) + " s, query " +
         bees::obs::json_number(busy[1]) + " s, fleet " +
         bees::obs::json_number(busy[2]) + " s; host steal " +
         bees::obs::json_number(steal_pct) + "% of CPU time");
    for (auto& phase : phases) phase->finish();
  } catch (const std::exception& e) {
    std::cerr << "bees_perfbench: " << e.what() << '\n';
    return 1;
  }
  results.metric("setup_s",
                 results.value("capture.setup_s") +
                     results.value("query.setup_s"),
                 "s");
  results.metric("error_rate",
                 static_cast<double>(results.failed()) /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, results.attempted())),
                 "fraction");

  if (args.trace) {
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << spans.to_chrome_json() << '\n';
      note("spans: " + std::to_string(spans.size()) + " written to " +
           args.trace_out);
    }
    results.metric("trace.spans", static_cast<double>(spans.size()), "count");
  }

  if (!results.valid()) {
    std::cerr << "bees_perfbench: run invalid: " << results.invalid_reason()
              << '\n';
    return 3;
  }
  std::cout << results.to_json() << std::endl;
  return results.all_ok() ? 0 : 1;
}
