// ScopedTimer: RAII probe that charges an elapsed duration into a named
// histogram of the metrics registry.  The clock source is pluggable — the
// default reads the wall clock (steady_clock), and simulation code passes a
// lambda reading its simulated clock (e.g. net::Channel::now or a
// BatchReport's busy-seconds accumulator) so recorded durations stay
// deterministic.  When observability is disabled at construction the timer
// is fully inert: the clock function is never invoked and nothing is
// allocated — the name is a literal, turned into a string only when a
// sample is recorded.
#pragma once

#include <chrono>
#include <functional>
#include <utility>

#include "obs/metrics.hpp"

namespace bees::obs {

/// A clock source in seconds.  Only the difference of two readings is
/// used, so any monotonic origin works.
using ClockFn = std::function<double()>;

/// Monotonic wall-clock seconds (steady_clock).
inline double wall_seconds() noexcept {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class ScopedTimer {
 public:
  /// Wall-clock timer charging `name` (a string literal, or any string
  /// outliving the timer) in the global registry.
  explicit ScopedTimer(const char* name)
      : ScopedTimer(name, ClockFn(&wall_seconds)) {}

  /// Timer reading `clock`; charges `name` in `registry`.
  ScopedTimer(const char* name, ClockFn clock,
              MetricsRegistry& registry = MetricsRegistry::global())
      : name_(name),
        clock_(std::move(clock)),
        registry_(&registry),
        active_(enabled()) {
    if (active_) start_s_ = clock_();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() {
    if (active_) registry_->observe(name_, elapsed_seconds());
  }

  /// Seconds since construction (0 when inert).
  double elapsed_seconds() const { return active_ ? clock_() - start_s_ : 0.0; }

 private:
  const char* name_;
  ClockFn clock_;
  MetricsRegistry* registry_;
  bool active_;
  double start_s_ = 0.0;
};

}  // namespace bees::obs
