// Observability off costs no heap allocation: every query, rescore and
// store constructs a ScopedTimer or a ScopedSpan, so with observability
// disabled constructing and destroying one must not allocate, however long
// its name.
//
// This binary replaces the global operator new to count the allocations
// made while a probe is armed; it is its own test binary so the
// replacement reaches no other suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "obs/trace.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// GCC pairs the free() below with the operator new it sees inlined at a
// call site and calls it mismatched; in the replacement functions
// themselves, malloc and free are the matching pair.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace bees::obs {
namespace {

/// Heap allocations `fn` makes.
template <typename Fn>
std::size_t allocations_of(Fn&& fn) {
  g_allocations.store(0);
  g_armed.store(true);
  fn();
  g_armed.store(false);
  return g_allocations.load();
}

TEST(ObsAllocations, DisabledTimerAndSpanAllocateNothing) {
  set_enabled(false);
  // Names past libstdc++'s 15-character inline string buffer, like the
  // in-tree probes' names.
  EXPECT_EQ(allocations_of([] {
              const ScopedTimer timer("cloud.query.rescore.seconds");
            }),
            0u);
  EXPECT_EQ(allocations_of([] {
              const ScopedSpan span("fanout.binary.rescore", "serve.cluster");
            }),
            0u);
}

TEST(ObsAllocations, EnabledTimerAndSpanStillRecord) {
  MetricsRegistry::global().reset();
  Tracer::global().clear();
  set_enabled(true);
  {
    const ScopedTimer timer("cloud.query.rescore.seconds");
    const ScopedSpan span("fanout.binary.rescore", "serve.cluster");
  }
  set_enabled(false);
  EXPECT_EQ(MetricsRegistry::global()
                .snapshot()
                .histograms.at("cloud.query.rescore.seconds")
                .count,
            1u);
  const std::vector<TraceEvent> events = Tracer::global().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "fanout.binary.rescore");
  EXPECT_EQ(events[0].category, "serve.cluster");
  MetricsRegistry::global().reset();
  Tracer::global().clear();
}

}  // namespace
}  // namespace bees::obs
