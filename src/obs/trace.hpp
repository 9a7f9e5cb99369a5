// Span-based tracing of the upload pipeline.  Spans are complete events
// (name, category, start, duration) on one of a few fixed timeline lanes,
// collected under a mutex and exportable as a chrome://tracing /
// Perfetto-compatible JSON file.  Simulation spans carry simulated-clock
// timestamps (deterministic); server-side spans carry wall-clock
// timestamps — the lanes keep the two time bases from interleaving
// confusingly in the viewer.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace bees::obs {

/// Timeline lanes ("tid" in the chrome trace) used by the built-in
/// instrumentation.
inline constexpr std::uint32_t kLaneScheme = 1;     ///< Client pipeline stages.
inline constexpr std::uint32_t kLaneTransport = 2;  ///< Per-RPC attempts.
inline constexpr std::uint32_t kLaneServer = 3;     ///< Server dispatches.

struct TraceEvent {
  std::string name;
  std::string category;
  double start_s = 0.0;
  double duration_s = 0.0;
  std::uint32_t lane = 0;

  bool operator==(const TraceEvent&) const = default;
};

class Tracer {
 public:
  void add(TraceEvent event);

  std::vector<TraceEvent> events() const;
  std::size_t size() const;
  void clear();

  /// Chrome trace-event JSON: {"traceEvents":[{"name",...,"ph":"X",
  /// "ts":<us>,"dur":<us>,"pid":1,"tid":<lane>}, ...]}.
  std::string to_chrome_json() const;

  /// The process-wide tracer all built-in spans record into.
  static Tracer& global();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
};

/// Parses a to_chrome_json() dump back into events (strict: accepts the
/// exporter's own output, not arbitrary JSON).  Throws std::runtime_error
/// on malformed input.  Exists so tests — and tools replaying a trace —
/// can round-trip the file format.
std::vector<TraceEvent> parse_chrome_json(const std::string& json);

/// Records one complete span if observability is enabled.
inline void span_event(std::string name, std::string category, double start_s,
                       double duration_s, std::uint32_t lane) {
  if (enabled()) {
    Tracer::global().add(
        {std::move(name), std::move(category), start_s, duration_s, lane});
  }
}

/// RAII span: reads `clock` at construction and destruction and records
/// the complete event into the global tracer.  Inert (clock never called,
/// nothing allocated) when observability is disabled at construction:
/// `name` and `category` are literals, copied into the event only when it
/// is recorded.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category, ClockFn clock,
             std::uint32_t lane = 0)
      : name_(name),
        category_(category),
        clock_(std::move(clock)),
        lane_(lane),
        active_(enabled()) {
    if (active_) start_s_ = clock_();
  }

  /// Wall-clock span (server-side instrumentation).
  ScopedSpan(const char* name, const char* category,
             std::uint32_t lane = kLaneServer)
      : ScopedSpan(name, category, ClockFn(&wall_seconds), lane) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (active_) {
      Tracer::global().add(
          {name_, category_, start_s_, clock_() - start_s_, lane_});
    }
  }

 private:
  const char* name_;
  const char* category_;
  ClockFn clock_;
  std::uint32_t lane_;
  bool active_;
  double start_s_ = 0.0;
};

}  // namespace bees::obs
