// Deterministic virtual-time model of the serving cluster's admission gate
// and execution permits: `servers` parallel servers behind a bounded
// first-come-first-served queue.  The fleet simulator resolves shedding and
// queueing delay here, in simulated time, instead of observing the real
// cluster's gate — real thread scheduling would make shed decisions (and
// therefore the run report) nondeterministic.  The model mirrors
// serve::Cluster's semantics exactly: a request is shed iff the number of
// admitted-but-incomplete requests (queued + executing) has reached
// `depth` when it arrives, and a shed reply is immediate.
//
// Arrivals must be offered in non-decreasing time order; the simulator's
// epoch barriers guarantee that ordering globally across devices.
#pragma once

#include <cstddef>
#include <functional>
#include <queue>
#include <vector>

namespace bees::fleet {

/// What the model decided for one offered request.
struct ServiceOutcome {
  bool shed = false;
  double start_s = 0.0;       ///< Service start (admitted requests only).
  double completion_s = 0.0;  ///< Reply time; == arrival time when shed.
};

class QueueModel {
 public:
  /// `servers` >= 1 parallel servers, admission bound `depth` >= 1.
  QueueModel(int servers, std::size_t depth);

  /// Offers one request arriving at `arrival_s` needing `service_s` of
  /// server time.  Arrivals must be non-decreasing across calls.
  ServiceOutcome offer(double arrival_s, double service_s);

  /// Admitted requests not yet complete at `now_s` (queued + executing).
  std::size_t in_system(double now_s);

  std::size_t offered() const noexcept { return offered_; }
  std::size_t shed() const noexcept { return shed_; }

 private:
  using MinHeap =
      std::priority_queue<double, std::vector<double>, std::greater<double>>;

  std::size_t depth_;
  /// Next-free time per server (min-heap): the earliest entry serves the
  /// next admitted request, which is exactly FCFS when arrivals are offered
  /// in time order.
  MinHeap free_;
  /// Completion times of admitted, possibly still outstanding requests.
  MinHeap outstanding_;
  std::size_t offered_ = 0;
  std::size_t shed_ = 0;
};

}  // namespace bees::fleet
