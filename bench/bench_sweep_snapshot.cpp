// Warm-start snapshots: cold vs copy-on-write-forked execution of the
// paper's evaluation grids (the 6 Table II interruption cells + a Fig. 11
// injection campaign sweeping late attack-arm times). With warm-start on,
// the sweep engine runs each group's shared workload prefix once in a
// forked group process and forks one COW child per cell at its divergence
// point, so the expensive normal-operation prefix is simulated once per
// signature instead of once per cell. The results must stay byte-identical
// to the cold run — this bench diffs the two JSON documents and reports
// the wall-clock speedup (total-work reduction, so it shows up even on a
// single core).
//
// Both runs use 8 threads. `--json <path>` writes a bench_json.hpp wrapper
// document with cold/warm wall-clock metrics for tools/bench_baseline.py.
#include <cstdio>

#include "bench_json.hpp"
#include "snap/snapshot.hpp"
#include "sweep/sweep.hpp"

using namespace attain;
using namespace attain::scenario;
using namespace attain::sweep;

namespace {

std::vector<RunSpec> evaluation_grid() {
  std::vector<RunSpec> grid = table2_grid();
  // Injection campaign with late arm times: an 8-trial iperf ramp
  // (t = 55..93 s) with the arm-time sweep clustered over the last two
  // trials, so the long normal-operation prefix is shared and the
  // post-fork tails each suppress only the trailing traffic. This is the
  // regime warm-start targets — cold runs replay the expensive prefix
  // once per cell, warm runs once per controller.
  // 3 controllers x (baseline + 5 arm times) = 18 campaign cells.
  for (RunSpec& spec : fig11_campaign_grid(
           {86 * kSecond, 88 * kSecond, 89 * kSecond, 91 * kSecond, 92 * kSecond},
           /*ping_trials=*/20, /*iperf_trials=*/8)) {
    grid.push_back(std::move(spec));
  }
  return grid;
}

SweepReport run_grid(const std::vector<RunSpec>& grid, unsigned threads, bool warm_start) {
  SweepOptions options;
  options.threads = threads;
  options.warm_start = warm_start;
  options.on_progress = make_progress_printer();
  return SweepRunner(options).run(grid);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned threads = 8;

  const std::vector<RunSpec> grid = evaluation_grid();
  std::printf("Warm-start snapshots — %zu-cell Table II + Fig. 11 campaign grid, "
              "cold vs forked at %u threads\n\n",
              grid.size(), threads);
  if (!snap::fork_supported()) {
    std::printf("snapshot forking unavailable on this platform/build; "
                "nothing to compare\n");
    return 0;
  }

  std::printf("cold run (every cell from scratch):\n");
  const SweepReport cold = run_grid(grid, threads, /*warm_start=*/false);
  std::printf("  %s\n\n", cold.summary().c_str());

  std::printf("warm run (forked from shared warm-ups):\n");
  const SweepReport warm = run_grid(grid, threads, /*warm_start=*/true);
  std::printf("  %s\n\n", warm.summary().c_str());

  const bool identical = cold.results_json() == warm.results_json();
  const double speedup = warm.wall_seconds > 0.0 ? cold.wall_seconds / warm.wall_seconds : 0.0;

  std::printf("per-cell results bit-identical: %s\n", identical ? "yes" : "NO — BUG");
  std::printf("warm cells: %zu of %zu (from %zu shared warm-ups)\n", warm.warm_cells,
              grid.size(), warm.warm_groups);
  std::printf("wall-clock speedup: %.2fx (%.2fs cold -> %.2fs warm)\n", speedup,
              cold.wall_seconds, warm.wall_seconds);

  if (const std::string path = bench::json_out_path(argc, argv); !path.empty()) {
    const bench::Metrics metrics = {
        {"cold_wall_seconds", cold.wall_seconds},
        {"warm_wall_seconds", warm.wall_seconds},
        {"speedup", speedup},
    };
    if (!bench::write_bench_json(path, "sweep_snapshot", "table2+fig11_campaign",
                                 warm.results_json(), metrics)) {
      std::fprintf(stderr, "failed to write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", path.c_str());
  }

  if (!identical) {
    std::printf("\ncold: %s\nwarm: %s\n", cold.results_json().c_str(),
                warm.results_json().c_str());
    return 1;
  }
  return 0;
}
