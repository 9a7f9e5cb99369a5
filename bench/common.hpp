// Shared plumbing for the figure/table benches: workload scale selection,
// byte-scale calibration onto the paper's ~700 KB average image size, and
// uniform scheme construction.
//
// Every bench runs at a laptop-friendly reduced scale by default; set
// BEES_BENCH_SCALE=paper to run with workload sizes closer to the paper's
// (several-fold slower).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/baselines.hpp"
#include "core/bees.hpp"
#include "core/simulation.hpp"
#include "features/simd.hpp"
#include "obs/json.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace bees::bench {

/// True when BEES_BENCH_SCALE=paper is set in the environment.
inline bool paper_scale() {
  const char* v = std::getenv("BEES_BENCH_SCALE");
  return v != nullptr && std::string(v) == "paper";
}

/// Picks a workload size: the reduced default or the near-paper value.
inline int sized(int small, int paper) { return paper_scale() ? paper : small; }

/// The paper's average image size: "all used images are resized to about
/// 700 KB" (§IV-A).
inline constexpr double kPaperImageBytes = 700.0 * 1024;

/// Byte-scale multiplier so the mean original (as-shot) payload of the
/// sampled images lands at ~700 KB, putting airtime/energy in the paper's
/// absolute regime while preserving every ratio.
inline double calibrate_byte_scale(wl::ImageStore& store,
                                   const wl::Imageset& set,
                                   std::size_t sample = 12) {
  double total = 0.0;
  const std::size_t n = std::min(sample, set.images.size());
  if (n == 0) return 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<double>(store.original(set.images[i]).bytes);
  }
  return kPaperImageBytes / (total / static_cast<double>(n));
}

inline core::SchemeConfig make_config(double byte_scale) {
  core::SchemeConfig cfg;
  cfg.image_byte_scale = byte_scale;
  return cfg;
}

/// One number measured over repeated runs: how many, their median, and
/// their range.  Wall-clock rates on a shared host move run to run, so a
/// bench reports all three instead of one sample.
struct RepSpread {
  int reps = 0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

inline RepSpread spread_of(const std::vector<double>& values) {
  RepSpread out;
  out.reps = static_cast<int>(values.size());
  if (values.empty()) return out;
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  out.median = util::percentile(values, 0.5);
  out.min = *lo;
  out.max = *hi;
  return out;
}

/// One named number in a BENCH_*.json row or object; counts convert to
/// the JSON number type on construction.
struct JsonField {
  template <typename Number>
  JsonField(std::string field_name, Number field_value)
      : name(std::move(field_name)), value(static_cast<double>(field_value)) {}
  std::string name;
  double value;
};

/// Optional machine-readable bench output.  When the BEES_BENCH_JSON
/// environment variable names a directory, a BenchJson collects rows of
/// named numbers (one object per row, keyed by the row label) plus any
/// top-level fields, and writes them as `<dir>/BENCH_<name>.json` on
/// destruction.  Every file is stamped with the machine's hardware_threads
/// and the active match-kernel ISA, so each number names the hardware that
/// produced it.  Without the variable it is inert and the bench's stdout
/// stays byte-identical.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {
    const char* dir = std::getenv("BEES_BENCH_JSON");
    if (dir != nullptr && *dir != '\0') dir_ = dir;
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() {
    if (active()) write();
  }

  bool active() const { return !dir_.empty(); }

  /// Records one row of named numbers under the label `row`.
  void add(const std::string& row, std::vector<JsonField> fields) {
    if (!active()) return;
    rows_.emplace_back(row, std::move(fields));
  }

  /// Records one cell's full report (its stable named_values()) under the
  /// label `row`.
  void add(const std::string& row, const core::BatchReport& report) {
    if (!active()) return;
    std::vector<JsonField> fields;
    for (const core::NamedValue& v : report.named_values()) {
      fields.push_back({v.name, v.value});
    }
    add(row, std::move(fields));
  }

  /// Adds a top-level number beside "rows".
  void set(const std::string& key, double value) {
    fields_.emplace_back(key, obs::json_number(value));
  }

  /// Adds a top-level object of named numbers beside "rows".
  void set(const std::string& key, const std::vector<JsonField>& fields) {
    fields_.emplace_back(key, object(fields));
  }

  /// Writes the collected rows now (also done by the destructor).
  void write() const {
    if (!active()) return;
    std::ofstream out(dir_ + "/BENCH_" + name_ + ".json");
    out << "{\n  \"bench\": " << obs::json_string(name_)
        << ",\n  \"hardware_threads\": "
        << std::thread::hardware_concurrency() << ",\n  \"isa\": "
        << obs::json_string(feat::simd_isa_name(feat::active_simd_isa()));
    for (const auto& [key, json] : fields_) {
      out << ",\n  " << obs::json_string(key) << ": " << json;
    }
    out << ",\n  \"rows\": {";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out << (r == 0 ? "\n" : ",\n") << "    "
          << obs::json_string(rows_[r].first) << ": "
          << object(rows_[r].second);
    }
    out << "\n  }\n}\n";
  }

 private:
  static std::string object(const std::vector<JsonField>& fields) {
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += obs::json_string(fields[i].name) + ": " +
             obs::json_number(fields[i].value);
    }
    return out + "}";
  }

  std::string name_;
  std::string dir_;
  /// Top-level fields as (key, rendered JSON value), in insertion order.
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::pair<std::string, std::vector<JsonField>>> rows_;
};

/// Kilobyte / megabyte / kilojoule formatting helpers.
inline std::string kb(double bytes) {
  return util::Table::num(bytes / 1024.0, 1) + " KB";
}
inline std::string mb(double bytes) {
  return util::Table::num(bytes / (1024.0 * 1024.0), 2) + " MB";
}
inline std::string kj(double joules) {
  return util::Table::num(joules / 1000.0, 3) + " kJ";
}

}  // namespace bees::bench
