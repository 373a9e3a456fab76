// Memory-architecture harness: allocation counts and slab high-water marks
// for the two cells the arena work targets — the enterprise Table II
// suppression cell and the fat-tree(4) PacketIn-flood cell. For each cell
// it reports:
//
//   cold    first run on a fresh thread slab (pays every block commit),
//   steady  a repeated identical cell (the regime every sweep cell after
//           the first runs in — must be allocation-free end to end),
//   window  global allocations inside a steady-state window of the
//           warmed-up phased trajectory (the zero-malloc claim, measured
//           exactly as tests/test_memory_guard.cpp pins it).
//
// It then prints where each cell's memory goes: the arena bytes every slab
// size class reserved while the cell ran cold on a fresh thread (so on a
// fresh thread slab), with the peak number of scheduler event slots. The
// table adds the end-to-end benchmark's flood shape (POX on a 2048-host
// leaf-spine, 512 flows per edge switch) at its seed-1 attack starts, run
// in order on one thread as the benchmark runs them.
//
// The binary links common/alloc_hook.cpp (see CMakeLists.txt), so the
// counts are real global operator-new calls, binary-wide. `--json <path>`
// writes a bench_json.hpp document; the committed baseline is
// BENCH_memory.json and the CI bench-smoke job gates the *_seconds keys
// via tools/bench_baseline.py (allocation counts ride along as
// informational metrics).
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "common/log.hpp"
#include "scenario/run.hpp"
#include "sim/scheduler.hpp"
#include "topo/generators.hpp"

using namespace attain;
using namespace attain::scenario;

namespace {

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

struct CellReport {
  double cold_seconds{0.0};
  double steady_seconds{0.0};  // best repeated-cell wall clock
  std::uint64_t cold_allocs{0};
  std::uint64_t steady_allocs{0};  // global allocs of one full repeated cell
  std::uint64_t window_allocs{0};  // allocs inside the steady-state window
  std::string results_json;
};

// Same discipline as MemoryGuard.*SteadyStateAllocatesNothing: a prior
// identical representative trajectory fills the freelists to the phase's
// high-water marks; the measured phase then reuses that capacity.
std::uint64_t window_allocations(const RunSpec& spec, SimTime warm_until, SimTime window_end) {
  warm_up(warmup_representative(spec))->advance_to(window_end);
  WarmupPhasePtr phase = warm_up(warmup_representative(spec));
  phase->advance_to(warm_until);
  const memhook::Window window = memhook::Window::open();
  phase->advance_to(window_end);
  return window.allocations();
}

CellReport measure_cell(const RunSpec& spec, SimTime warm_until, SimTime window_end,
                        int steady_reps) {
  CellReport report;

  const memhook::Window cold_window = memhook::Window::open();
  const double cold_start = now_seconds();
  const RunResultPtr cold = run(spec);
  report.cold_seconds = now_seconds() - cold_start;
  report.cold_allocs = cold_window.allocations();
  report.results_json = cold->to_json();

  report.steady_seconds = report.cold_seconds;
  for (int rep = 0; rep < steady_reps; ++rep) {
    const memhook::Window rep_window = memhook::Window::open();
    const double rep_start = now_seconds();
    const RunResultPtr repeated = run(spec);
    const double rep_seconds = now_seconds() - rep_start;
    if (rep_seconds < report.steady_seconds) report.steady_seconds = rep_seconds;
    report.steady_allocs = rep_window.allocations();
    if (repeated->to_json() != report.results_json) {
      std::fprintf(stderr, "repeated cell diverged from cold run — BUG\n");
      std::exit(1);
    }
  }

  report.window_allocs = window_allocations(spec, warm_until, window_end);
  return report;
}

void print_cell(const char* name, const CellReport& r) {
  std::printf("%s:\n", name);
  std::printf("  cold cell:    %8.2f ms  %8llu allocs\n", r.cold_seconds * 1e3,
              static_cast<unsigned long long>(r.cold_allocs));
  std::printf("  steady cell:  %8.2f ms  %8llu allocs\n", r.steady_seconds * 1e3,
              static_cast<unsigned long long>(r.steady_allocs));
  std::printf("  steady window:             %8llu allocs\n",
              static_cast<unsigned long long>(r.window_allocs));
}

/// What a fresh thread slab reserved while running cells cold.
struct Footprint {
  std::size_t class_bytes[mem::SlabPool::kClassCount]{};
  std::size_t reserved{0};       // the slab arena's reserved bytes
  std::uint32_t slots_peak{0};   // largest scheduler slot count
};

/// Runs `cells` cold, in order, on a new thread and reports that thread's
/// slab reservation per size class.
Footprint measure_footprint(const std::vector<RunSpec>& cells) {
  Footprint f;
  std::thread([&] {
    sim::Scheduler::reset_thread_slots_peak();
    for (const RunSpec& cell : cells) run(cell);
    const mem::SlabPool& slab = mem::thread_slab();
    for (std::size_t c = 0; c < mem::SlabPool::kClassCount; ++c) {
      f.class_bytes[c] = slab.stats().class_refill_bytes[c];
    }
    f.reserved = slab.arena_stats().bytes_reserved;
    f.slots_peak = sim::Scheduler::thread_slots_peak();
  }).join();
  return f;
}

std::string class_label(std::size_t c) {
  const std::size_t bytes = mem::SlabPool::kMinClass << c;
  if (bytes >= 1024 * 1024) return std::to_string(bytes / (1024 * 1024)) + " MiB";
  if (bytes >= 1024) return std::to_string(bytes / 1024) + " KiB";
  return std::to_string(bytes) + " B";
}

void print_footprints(const std::vector<std::pair<const char*, Footprint>>& columns) {
  std::printf("\nslab reservation by size class (MiB, each column cold on a fresh thread):\n");
  std::printf("  %-10s", "class");
  for (const auto& [name, f] : columns) std::printf("  %26s", name);
  std::printf("\n");
  const auto mib = [](std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); };
  for (std::size_t c = 0; c < mem::SlabPool::kClassCount; ++c) {
    bool any = false;
    for (const auto& column : columns) any = any || column.second.class_bytes[c] != 0;
    if (!any) continue;
    std::printf("  %-10s", class_label(c).c_str());
    for (const auto& column : columns) std::printf("  %26.2f", mib(column.second.class_bytes[c]));
    std::printf("\n");
  }
  std::printf("  %-10s", "reserved");
  for (const auto& column : columns) std::printf("  %26.2f", mib(column.second.reserved));
  std::printf("\n  %-10s", "slots peak");
  for (const auto& column : columns) std::printf("  %26u", column.second.slots_peak);
  std::printf("\n");
}

/// The end-to-end benchmark's flood workload (e2e_bench/src/workloads.*)
/// at its seed-1 attack starts.
std::vector<RunSpec> e2e_flood_seed1_attack_cells() {
  Options options;
  options.fail_secure = false;
  options.use_compiled = true;
  return GridBuilder()
      .experiment(ExperimentKind::Volumetric)
      .volumetric(VolumetricKind::PacketInFlood)
      .controllers({ControllerKind::Pox})
      .topology(topo::TopologySpec::leaf_spine(1, 64, 32))
      .attack_modes({true})
      .fail_modes({false})
      .attack_starts({3520 * kMillisecond, 3780 * kMillisecond, 3972 * kMillisecond,
                      4421 * kMillisecond, 4927 * kMillisecond, 5288 * kMillisecond,
                      5587 * kMillisecond})
      .flood(512, 10 * kSecond, 100 * kMillisecond)
      .table_capacity(0)
      .options(options)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("Arena/slab memory architecture — steady-state allocation counts\n");
  std::printf("allocation hook installed: %s\n\n", memhook::installed() ? "yes" : "NO");
  if (!memhook::installed()) {
    std::fprintf(stderr, "bench_memory must link common/alloc_hook.cpp\n");
    return 1;
  }

  RunSpec suppression;  // enterprise FlowModSuppression, the Table II cell
  const CellReport supp =
      measure_cell(suppression, 20 * kSecond, 40 * kSecond, /*steady_reps=*/5);
  print_cell("enterprise suppression (Table II)", supp);

  // Same bounded fat-tree(4) flood cell as bench_topology's
  // BM_VolumetricCell (the default 256-flow/10 s flood leaves the fabric's
  // learned tables flapping for the whole post-flood tail, which costs
  // ~60 s per full cell — far too heavy for a smoke gate). The steady
  // window rides the representative trajectory, which is cheap either way.
  RunSpec flood;
  flood.experiment = ExperimentKind::Volumetric;
  flood.controller = ControllerKind::Pox;
  flood.attack_enabled = true;
  flood.volumetric = VolumetricKind::PacketInFlood;
  flood.topology = topo::TopologySpec::fat_tree(4);
  flood.flood_flows = 64;
  flood.flood_duration = 2 * kSecond;
  flood.flood_batch = 500 * kMillisecond;
  const CellReport fl = measure_cell(flood, 6 * kSecond, 10 * kSecond, /*steady_reps=*/3);
  print_cell("fat-tree(4) PacketIn flood", fl);

  const mem::SlabPool::Stats slabs = mem::all_slabs_stats();
  const mem::Arena::Stats slab_arena = mem::thread_slab().arena_stats();
  std::printf("\nthread slab after all cells:\n");
  std::printf("  arena reserved:  %zu bytes (in use %zu)\n", slab_arena.bytes_reserved,
              slab_arena.bytes_in_use);
  std::printf("  freelist hits:   %llu of %llu allocs, %llu oversize (%llu recycled)\n",
              static_cast<unsigned long long>(slabs.freelist_hits),
              static_cast<unsigned long long>(slabs.allocs),
              static_cast<unsigned long long>(slabs.oversize_allocs),
              static_cast<unsigned long long>(slabs.oversize_hits));

  // After the figures above, which read every slab: these threads' slabs
  // would otherwise join the sums.
  const Footprint supp_footprint = measure_footprint({suppression});
  const Footprint flood_footprint = measure_footprint({flood});
  // Their flooded switches log expected fail-safe warnings.
  const LogLevel log_level = Logger::instance().level();
  Logger::instance().set_level(LogLevel::Error);
  const Footprint e2e_footprint = measure_footprint(e2e_flood_seed1_attack_cells());
  Logger::instance().set_level(log_level);
  print_footprints({{"enterprise suppression", supp_footprint},
                    {"fat-tree(4) flood", flood_footprint},
                    {"e2e flood seed-1 attacks", e2e_footprint}});
  const auto k32KiB = static_cast<std::size_t>(mem::SlabPool::class_index(32 * 1024));

  if (const std::string path = bench::json_out_path(argc, argv); !path.empty()) {
    const bench::Metrics metrics = {
        {"suppression_cold_seconds", supp.cold_seconds},
        {"suppression_steady_seconds", supp.steady_seconds},
        {"suppression_cold_allocs", static_cast<double>(supp.cold_allocs)},
        {"suppression_steady_allocs", static_cast<double>(supp.steady_allocs)},
        {"suppression_window_allocs", static_cast<double>(supp.window_allocs)},
        {"flood_cold_seconds", fl.cold_seconds},
        {"flood_steady_seconds", fl.steady_seconds},
        {"flood_cold_allocs", static_cast<double>(fl.cold_allocs)},
        {"flood_steady_allocs", static_cast<double>(fl.steady_allocs)},
        {"flood_window_allocs", static_cast<double>(fl.window_allocs)},
        {"slab_arena_reserved_bytes", static_cast<double>(slab_arena.bytes_reserved)},
        // The arena only bumps, so what it holds in use is its high
        // water; the key keeps its committed name.
        {"slab_arena_high_water_bytes", static_cast<double>(slab_arena.bytes_in_use)},
        {"slab_freelist_hits", static_cast<double>(slabs.freelist_hits)},
        {"slab_oversize_allocs", static_cast<double>(slabs.oversize_allocs)},
        // Record-only: the seed-1 e2e flood attack cells' slab footprint.
        {"e2e_flood_slab_reserved_bytes", static_cast<double>(e2e_footprint.reserved)},
        {"e2e_flood_slab_32k_class_bytes",
         static_cast<double>(e2e_footprint.class_bytes[k32KiB])},
        {"e2e_flood_scheduler_slots_peak", static_cast<double>(e2e_footprint.slots_peak)},
    };
    if (!bench::write_bench_json(path, "memory", "suppression+flood_steady_state",
                                 supp.results_json, metrics)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }

  // The whole point: the warmed-up simulate loop must not touch the heap.
  // (The full repeated cell still allocates a handful for its result
  // document — that lives on the normal heap by design.) Fail loudly so
  // CI catches a regression even without the baseline comparison.
  if (supp.window_allocs != 0 || fl.window_allocs != 0) {
    std::fprintf(stderr, "steady-state window allocations regressed above zero\n");
    return 1;
  }
  return 0;
}
