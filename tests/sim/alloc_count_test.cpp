// Zero-allocation steady state (ISSUE 4): once the Simulator's arena
// and a policy's scratch are warm, additional simulation steps must not
// touch the heap.  A test-local counting `operator new` measures two
// truncated runs of the same deterministic trajectory (same instance,
// policy object, simulator, and seed) that differ only in max_steps;
// the extra steps of the longer run must contribute zero allocations.
//
// This file is compiled into its own test binary (ocd_alloc_tests) so
// the replaced global allocator cannot perturb the main suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "ocd/core/scenario.hpp"
#include "ocd/heuristics/factory.hpp"
#include "ocd/sim/simulator.hpp"
#include "ocd/topology/random_graph.hpp"
#include "ocd/util/parallel.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

namespace ocd::testing_alloc {
// Read access for sibling suites in this binary (flow/flow_alloc_test
// .cpp): the counting allocator lives here exactly once.
std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}
}  // namespace ocd::testing_alloc

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ocd::sim {
namespace {

/// Fig-2-style broadcast, slowed down with unit-ish capacities so a
/// truncated run is guaranteed to still be mid-flight: with in-degree
/// ~2 ln n and capacity at most 2, draining 256 tokens into any vertex
/// needs well over 20 steps.
core::Instance slow_fig2_instance() {
  Rng rng(0xa110c);
  topology::RandomGraphOptions options;
  options.capacities = {1, 2};
  Digraph graph = topology::random_overlay(64, options, rng);
  return core::single_source_all_receivers(std::move(graph), 256, 0);
}

std::uint64_t allocations_during(Simulator& simulator,
                                 const core::Instance& inst, Policy& policy,
                                 const SimOptions& options,
                                 std::int64_t* steps_out) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const RunResult result = simulator.run(inst, policy, options);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  *steps_out = result.steps;
  return after - before;
}

TEST(AllocCount, SteadyStateStepsAreAllocationFree) {
  const core::Instance inst = slow_fig2_instance();
  constexpr std::int64_t kShort = 6;
  constexpr std::int64_t kLong = 16;

  for (const char* name : {"global", "local", "random", "round-robin"}) {
    SCOPED_TRACE(name);
    const auto policy = heuristics::make_policy(name);
    Simulator simulator;
    SimOptions options;
    options.seed = 17;
    options.record_schedule = false;

    // Warm run: sizes the simulator arena and the policy scratch along
    // the exact trajectory the measured runs will replay.
    options.max_steps = kLong;
    (void)simulator.run(inst, *policy, options);

    std::int64_t short_steps = 0;
    std::int64_t long_steps = 0;
    options.max_steps = kShort;
    const std::uint64_t short_allocs =
        allocations_during(simulator, inst, *policy, options, &short_steps);
    options.max_steps = kLong;
    const std::uint64_t long_allocs =
        allocations_during(simulator, inst, *policy, options, &long_steps);

    // Both runs must have been truncated mid-broadcast, so the counts
    // really differ by kLong - kShort live steps.
    ASSERT_EQ(short_steps, kShort);
    ASSERT_EQ(long_steps, kLong);
    EXPECT_EQ(long_allocs, short_allocs)
        << (long_allocs - short_allocs) << " allocations across "
        << (kLong - kShort) << " steady-state steps";
  }
}

// The same bar with a worker budget of 4: sim::run must not start
// allocating when OCD_JOBS > 1 (the apply phase is serial at any
// budget, so no pool region or per-chunk arena may appear).
TEST(AllocCount, ParallelSteadyStateStepsAreAllocationFree) {
  util::set_parallel_jobs(4);
  const core::Instance inst = slow_fig2_instance();
  constexpr std::int64_t kShort = 6;
  constexpr std::int64_t kLong = 16;

  for (const char* name : {"global", "local"}) {
    SCOPED_TRACE(name);
    const auto policy = heuristics::make_policy(name);
    Simulator simulator;
    SimOptions options;
    options.seed = 17;
    options.record_schedule = false;

    options.max_steps = kLong;
    (void)simulator.run(inst, *policy, options);

    std::int64_t short_steps = 0;
    std::int64_t long_steps = 0;
    options.max_steps = kShort;
    const std::uint64_t short_allocs =
        allocations_during(simulator, inst, *policy, options, &short_steps);
    options.max_steps = kLong;
    const std::uint64_t long_allocs =
        allocations_during(simulator, inst, *policy, options, &long_steps);

    ASSERT_EQ(short_steps, kShort);
    ASSERT_EQ(long_steps, kLong);
    EXPECT_EQ(long_allocs, short_allocs)
        << (long_allocs - short_allocs) << " allocations across "
        << (kLong - kShort) << " parallel steady-state steps";
  }
  util::set_parallel_jobs(0);
}

TEST(AllocCount, HarnessCountsAllocations) {
  // Sanity-check the instrumented allocator itself: a vector growing
  // from empty must be visible to the counter.
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  std::vector<std::uint64_t> v(1024);
  v.resize(4096);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GE(after - before, 2u);
}

}  // namespace
}  // namespace ocd::sim
