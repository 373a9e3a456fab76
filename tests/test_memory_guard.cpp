// The whole point of the arena/slab architecture (common/arena.hpp): a
// warmed-up simulate loop performs ZERO global allocations. These tests pin
// that property with the binary-wide counting hook (common/alloc_hook.cpp,
// linked into attain_tests) over real experiment cells, using the phased
// run contract to separate warm-up from the measured steady-state window.
//
// Also pinned here: slab reuse across sweep cells — a second identical
// cell must produce byte-identical JSON and hand back every slab byte it
// took.
#include <gtest/gtest.h>

#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "scenario/run.hpp"
#include "topo/generators.hpp"

namespace attain::scenario {
namespace {

// Measures global allocations during [warm_until, window_end) of the
// representative's shared trajectory. The warm-up phase is where pools,
// freelists, tables, and the scheduler slot pool reach their high-water
// marks; the window is the steady-state the arena work targets.
std::uint64_t window_allocations(const RunSpec& spec, SimTime warm_until, SimTime window_end) {
  // A prior identical trajectory fills the thread slab's freelists to the
  // phase's high-water marks — the steady state every cell after the first
  // of a sweep runs in. The measured phase then reuses that capacity.
  // (Warming with the *attack* cell would not do: suppression keeps its
  // flow tables smaller, so the representative would still grow.)
  warm_up(warmup_representative(spec))->advance_to(window_end);
  WarmupPhasePtr phase = warm_up(warmup_representative(spec));
  phase->advance_to(warm_until);
  const memhook::Window window = memhook::Window::open();
  memhook::g_backtrace_on_alloc.store(true);  // diagnose failures with stacks
  phase->advance_to(window_end);
  memhook::g_backtrace_on_alloc.store(false);
  return window.allocations();
}

TEST(MemoryGuard, HookIsInstalledInThisBinary) {
  ASSERT_TRUE(memhook::installed())
      << "common/alloc_hook.cpp must be linked into attain_tests";
  // And it is actually counting: one heap allocation moves the needle.
  const std::uint64_t before = memhook::news();
  auto p = std::make_unique<int>(1);
  EXPECT_GT(memhook::news(), before);
}

TEST(MemoryGuard, EnterpriseSuppressionSteadyStateAllocatesNothing) {
  RunSpec spec;  // enterprise FlowModSuppression, the Table II / Fig. 11 cell
  const std::uint64_t allocs = window_allocations(spec, 20 * kSecond, 40 * kSecond);
  EXPECT_EQ(allocs, 0u)
      << "the warmed-up suppression simulate loop must not touch the heap";
}

TEST(MemoryGuard, FatTreeFloodSteadyStateAllocatesNothing) {
  RunSpec spec;
  spec.experiment = ExperimentKind::Volumetric;
  spec.volumetric = VolumetricKind::PacketInFlood;
  spec.topology = topo::TopologySpec::fat_tree(4);
  // Flood runs 10 s from t=1 s with bounded distinct flows, so MAC/flow
  // tables stabilize early; measure the back half of the flood.
  const std::uint64_t allocs = window_allocations(spec, 6 * kSecond, 10 * kSecond);
  EXPECT_EQ(allocs, 0u)
      << "the warmed-up flood simulate loop must not touch the heap";
}

TEST(MemoryGuard, SlabReusesAcrossIdenticalCells) {
  RunSpec spec;  // one full enterprise suppression cell, twice
  const RunResultPtr first = run(spec);
  const std::string first_json = first->to_json();

  // The first cell's held result pins some slab bytes. Once the second
  // cell's result is released too, exactly those must still be live: the
  // second cell returned everything it took. (Whether it also fit in the
  // blocks already committed depends on which size classes the first
  // result pins, so the arena's growth is not asserted.)
  const std::size_t live_after_first = mem::thread_slab().stats().bytes_live;
  const std::uint64_t boundaries = mem::run_boundaries();
  {
    const RunResultPtr second = run(spec);
    EXPECT_EQ(second->to_json(), first_json) << "reuse must not perturb results";
  }
  EXPECT_EQ(mem::thread_slab().stats().bytes_live, live_after_first)
      << "a repeated cell must return every slab byte it took";
  EXPECT_EQ(mem::run_boundaries(), boundaries + 1);
}

}  // namespace
}  // namespace attain::scenario
