// Distributed campaign runner: 1-worker vs N-worker wall clock over a
// ≥200-cell volumetric campaign, plus the byte-identity check against the
// in-process SweepRunner. The headline metric is parallel efficiency
// normalized by the usable core count — speedup / min(workers, cores) — so
// the gate holds on any host: a 4-core machine must show near-4x, a
// single-core CI runner shows ~1x (and still proves determinism and the
// coordinator's dispatch overhead is negligible).
//
// Flags:
//   --json <path>        write the bench_json.hpp document (metrics:
//                        workers1_seconds, workersN_seconds, efficiency)
//   --workers N          parallel worker count (default 4)
//   --min-efficiency X   hard-fail below this normalized efficiency
//                        (default 0.7, the committed acceptance gate)
//   --quick              shrink the grid (~24 cells) for smoke runs
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench_json.hpp"
#include "sweep/distributed.hpp"
#include "sweep/sweep.hpp"
#include "topo/generators.hpp"

using namespace attain;
using namespace attain::scenario;
using namespace attain::sweep;

namespace {

// 2 topologies x 3 controllers x 3 volumetric kinds x (1 baseline + 11
// attack starts) = 216 cells, each a short 2-second flood window.
std::vector<RunSpec> campaign_grid(bool quick) {
  GridBuilder builder;
  builder.volumetric(VolumetricKind::PacketInFlood)
      .volumetric(VolumetricKind::TableOverflow)
      .volumetric(VolumetricKind::SlowRate)
      .topology(topo::TopologySpec::fat_tree(4))
      .flood(/*flows=*/64, /*duration=*/2 * kSecond, /*batch=*/250 * kMillisecond)
      .table_capacity(96);
  if (quick) {
    builder.controllers({ControllerKind::Pox});
  } else {
    builder.controllers(
        {ControllerKind::Floodlight, ControllerKind::Pox, ControllerKind::Ryu});
    builder.topology(topo::TopologySpec::leaf_spine(2, 4, 4));
    // 1 baseline + 11 attack starts per (kind, controller, topology) slot:
    // 3 x 3 x 2 x 12 = 216 cells. The starts step by 1/8 s from just after
    // the earliest start a volumetric cell accepts (the switches are
    // connected and settled by then).
    std::vector<SimTime> starts;
    for (int k = 1; k <= 11; ++k) starts.push_back(kEarliestVolumetricStart + k * kSecond / 8);
    builder.attack_starts(std::move(starts));
  }
  return builder.build();
}

DistributedReport run_with_workers(const std::vector<RunSpec>& grid, unsigned workers) {
  DistributedOptions options;
  options.workers = workers;
  return DistributedRunner(options).run(grid);
}

}  // namespace

int main(int argc, char** argv) {
  unsigned workers = 4;
  double min_efficiency = 0.7;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--min-efficiency") == 0 && i + 1 < argc) {
      min_efficiency = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    }
    // --json is handled by bench::json_out_path; unknown flags are ignored.
  }
  if (workers == 0) workers = 4;

  const std::vector<RunSpec> grid = campaign_grid(quick);
  std::printf("Distributed campaign — %zu volumetric cells, 1 worker vs %u workers\n\n",
              grid.size(), workers);

  // In-process reference first: the byte-identity anchor.
  SweepOptions serial_options;
  serial_options.threads = 1;
  const SweepReport reference = SweepRunner(serial_options).run(grid);
  std::printf("in-process reference: %s\n", reference.summary().c_str());

  const DistributedReport one = run_with_workers(grid, 1);
  std::printf("1 worker:  %s\n", one.summary().c_str());

  const DistributedReport many = run_with_workers(grid, workers);
  std::printf("%u workers: %s\n\n", workers, many.summary().c_str());

  const bool identical = one.results_json() == reference.results_json() &&
                         many.results_json() == reference.results_json();
  const double speedup =
      many.sweep.wall_seconds > 0.0 ? one.sweep.wall_seconds / many.sweep.wall_seconds : 0.0;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const unsigned usable = std::min(workers, cores);
  const double efficiency = usable > 0 ? speedup / usable : 0.0;

  std::printf("merged JSON bit-identical across worker counts: %s\n",
              identical ? "yes" : "NO — BUG");
  std::printf("speedup: %.2fx (%.2fs at 1 worker -> %.2fs at %u workers)\n", speedup,
              one.sweep.wall_seconds, many.sweep.wall_seconds, workers);
  std::printf("parallel efficiency: %.2f over %u usable core%s (gate: >= %.2f)\n", efficiency,
              usable, usable == 1 ? "" : "s", min_efficiency);

  const std::string out = bench::json_out_path(argc, argv);
  if (!out.empty()) {
    bench::Metrics metrics;
    metrics.emplace_back("workers1_seconds", one.sweep.wall_seconds);
    metrics.emplace_back("workersN_seconds", many.sweep.wall_seconds);
    metrics.emplace_back("speedup", speedup);
    metrics.emplace_back("efficiency", efficiency);
    metrics.emplace_back("cells", static_cast<double>(grid.size()));
    if (!bench::write_bench_json(out, "sweep_distributed", quick ? "quick" : "full",
                                 many.results_json(), metrics)) {
      std::fprintf(stderr, "failed to write %s\n", out.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out.c_str());
  }

  if (!identical) {
    std::printf("\nFAIL: merged documents differ\n");
    return 1;
  }
  if (distributed_supported() && efficiency < min_efficiency) {
    std::printf("\nFAIL: parallel efficiency %.2f below gate %.2f\n", efficiency,
                min_efficiency);
    return 1;
  }
  return 0;
}
