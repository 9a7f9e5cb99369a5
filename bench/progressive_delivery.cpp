// Progressive-delivery bench: what satisfaction-driven per-scan scheduling
// buys over FIFO whole-image delivery when a burst of uploads shares one
// congested cell uplink (DESIGN.md §15).
//
// A fleet of devices photographs distinct scenes and uploads them at the
// same instant through a thin shared pipe.  Both policies move exactly the
// same bytes — the same progressive streams, end to end — and differ only
// in the order the cell spends its bandwidth:
//
//   FIFO whole-image   one transfer unit per upload, arrival order; an
//                      image is usable only once fully delivered.
//   satisfaction       each scan is its own unit, served greedily by
//                      marginal-utility density; an image is usable at the
//                      first scan whose embedded residual MSE maps to a
//                      reconstruction above the usable-PSNR bar.
//
// Bar: satisfaction scheduling must cut the mean time-to-first-usable
// -image by at least 30% versus FIFO at equal total bytes, and both
// policies must deliver exactly the same byte total.
//
// When BEES_BENCH_JSON names a directory the rows are written to
// <dir>/BENCH_progressive.json.
//
// Usage: progressive_delivery [--smoke]   (--smoke shrinks the burst; the
// bars are deterministic and enforced in both modes)
#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "imaging/progressive.hpp"
#include "imaging/synth.hpp"
#include "sched/cell.hpp"
#include "sched/satisfaction.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace bees;

/// PSNR at which a reconstruction is "usable" situation awareness — between
/// sched::kUselessPsnr and typical final-scan quality, so coarse scans
/// usually clear it and headers alone never do.
constexpr double kUsablePsnr = 24.0;

double psnr_of(double mse) {
  if (mse <= 1e-9) return 99.0;
  return std::min(99.0, 10.0 * std::log10(255.0 * 255.0 / mse));
}

struct UploadJob {
  std::vector<double> scan_bytes;    ///< per-scan wire cost
  std::vector<double> utility;       ///< per-scan marginal satisfaction
  int usable_scan = 0;               ///< first scan clearing kUsablePsnr
  double total_bytes = 0.0;
};

struct PolicyResult {
  double mean_ttu_s = 0.0;   ///< mean time-to-usable
  double p99_ttu_s = 0.0;
  double makespan_s = 0.0;   ///< last scan's delivery time
  double bytes = 0.0;
};

PolicyResult run_policy(sched::CellPolicy policy,
                        const std::vector<UploadJob>& jobs,
                        double bytes_per_s) {
  sched::CellScheduler cell(policy, bytes_per_s);
  for (const UploadJob& j : jobs) {
    std::vector<sched::ScanUnit> units;
    if (policy == sched::CellPolicy::kFifo) {
      units.push_back({j.total_bytes, 1.0});  // whole image, one unit
    } else {
      units.reserve(j.scan_bytes.size());
      for (std::size_t s = 0; s < j.scan_bytes.size(); ++s) {
        units.push_back({j.scan_bytes[s], j.utility[s]});
      }
    }
    cell.submit(std::move(units), 0.0);
  }

  std::vector<double> usable_at(jobs.size(), -1.0);
  PolicyResult r;
  double t = 0.0;
  while (!cell.idle()) {
    for (const sched::CellDelivery& d : cell.advance(t, t + 0.25)) {
      const UploadJob& j = jobs[static_cast<std::size_t>(d.job)];
      const int usable =
          policy == sched::CellPolicy::kFifo ? 0 : j.usable_scan;
      if (d.scan == usable) usable_at[static_cast<std::size_t>(d.job)] = d.time_s;
      r.makespan_s = std::max(r.makespan_s, d.time_s);
    }
    t += 0.25;
  }
  double sum = 0.0;
  for (const double u : usable_at) sum += u;
  r.mean_ttu_s = sum / static_cast<double>(usable_at.size());
  std::vector<double> sorted = usable_at;
  std::sort(sorted.begin(), sorted.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  r.p99_ttu_s = sorted[rank - 1];
  r.bytes = cell.stats().bytes_delivered;
  return r;
}

int main_impl(bool smoke) {
  util::print_banner(
      std::cout, "Progressive delivery: satisfaction vs FIFO under congestion");

  const int images = smoke ? 8 : bench::sized(24, 64);
  const int scans = 4;
  const int quality = 60;
  const double bytes_per_s = 4000.0;  // a starved shared uplink

  // Real streams: distinct scenes, paper-sized captures, the codec's own
  // per-scan byte and residual-MSE trails.
  std::vector<UploadJob> jobs;
  jobs.reserve(static_cast<std::size_t>(images));
  double total_bytes = 0.0;
  for (int i = 0; i < images; ++i) {
    util::Rng rng(7000 + static_cast<std::uint64_t>(i));
    img::ViewPerturbation pert;
    const img::Image src = img::render_view(
        img::SceneSpec{300 + static_cast<std::uint64_t>(i), 18, 4}, 200, 150,
        pert, rng);
    const img::ProgressiveStream s =
        img::encode_progressive(src, quality, scans);
    UploadJob j;
    std::size_t prev = 0;
    for (const std::size_t end : s.scan_ends) {
      j.scan_bytes.push_back(static_cast<double>(end - prev));
      prev = end;
    }
    j.utility = sched::marginal_utilities(s.mse_after_scan);
    j.usable_scan = static_cast<int>(s.mse_after_scan.size()) - 1;
    for (std::size_t k = 0; k < s.mse_after_scan.size(); ++k) {
      if (psnr_of(s.mse_after_scan[k]) >= kUsablePsnr) {
        j.usable_scan = static_cast<int>(k);
        break;
      }
    }
    j.total_bytes = static_cast<double>(s.bytes.size());
    total_bytes += j.total_bytes;
    jobs.push_back(std::move(j));
  }

  const PolicyResult fifo = run_policy(sched::CellPolicy::kFifo, jobs,
                                       bytes_per_s);
  const PolicyResult sat = run_policy(sched::CellPolicy::kSatisfaction, jobs,
                                      bytes_per_s);
  const double ratio = sat.mean_ttu_s / fifo.mean_ttu_s;

  std::cout << "burst: " << images << " uploads x " << scans
            << " scans, quality " << quality << ", "
            << bench::kb(total_bytes) << " through "
            << bench::kb(bytes_per_s) << "/s, usable >= " << kUsablePsnr
            << " dB\n\n";
  util::Table table({"policy", "mean ttu", "p99 ttu", "makespan", "bytes"});
  table.add_row({"fifo whole-image", util::Table::num(fifo.mean_ttu_s, 2),
                 util::Table::num(fifo.p99_ttu_s, 2),
                 util::Table::num(fifo.makespan_s, 2), bench::kb(fifo.bytes)});
  table.add_row({"satisfaction", util::Table::num(sat.mean_ttu_s, 2),
                 util::Table::num(sat.p99_ttu_s, 2),
                 util::Table::num(sat.makespan_s, 2), bench::kb(sat.bytes)});
  table.print(std::cout);

  // ---- JSON ---------------------------------------------------------------
  bench::BenchJson json("progressive");
  json.add("config", {{"images", images},
                      {"scans", scans},
                      {"quality", quality},
                      {"bytes_per_s", bytes_per_s},
                      {"usable_psnr", kUsablePsnr},
                      {"total_bytes", total_bytes}});
  json.add("fifo", {{"mean_ttu_s", fifo.mean_ttu_s},
                    {"p99_ttu_s", fifo.p99_ttu_s},
                    {"makespan_s", fifo.makespan_s},
                    {"bytes", fifo.bytes}});
  json.add("satisfaction", {{"mean_ttu_s", sat.mean_ttu_s},
                            {"p99_ttu_s", sat.p99_ttu_s},
                            {"makespan_s", sat.makespan_s},
                            {"bytes", sat.bytes},
                            {"mean_ttu_ratio", ratio}});

  // ---- Bars ---------------------------------------------------------------
  int failures = 0;
  std::cout << "\nDelivery bar: satisfaction mean time-to-usable is "
            << util::Table::num(100.0 * (1.0 - ratio), 1)
            << "% below FIFO (required >= 30%)\n";
  if (!(ratio <= 0.70)) {
    std::cerr << "FAIL: satisfaction scheduling saved less than 30% of mean "
                 "time-to-usable\n";
    ++failures;
  }
  std::cout << "Byte-parity bar: fifo " << bench::kb(fifo.bytes)
            << " vs satisfaction " << bench::kb(sat.bytes)
            << " (required equal)\n";
  if (std::abs(fifo.bytes - sat.bytes) > 1e-6 * (1.0 + total_bytes)) {
    std::cerr << "FAIL: policies did not move the same bytes\n";
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  return main_impl(smoke);
}
