// Volumetric attack sweep on generated topologies: builds a
// topology × controller × {baseline, PACKET_IN flood, table overflow,
// slow-rate} grid with scenario::GridBuilder and runs it in parallel with
// sweep::SweepRunner. This is the topology-parametric worked example from
// docs/sweep.md — the same fluent builder expresses table2_grid() and
// fig11_grid() (they are now thin wrappers over it).
//
// `--threads N` caps the worker pool (default: one per hardware core). The
// JSON document at the end is byte-identical for any thread count — the
// determinism contract the tests pin.
//
// `--workers N` switches to the multi-process sweep::DistributedRunner
// (same byte-identical JSON). `--journal <path>` records completed cells
// to a resumable campaign journal; `--resume <path>` loads one first and
// only runs what is missing.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "scenario/experiment.hpp"
#include "sweep/distributed.hpp"
#include "sweep/sweep.hpp"
#include "volumetric_example_grid.hpp"

using namespace attain;

int main(int argc, char** argv) {
  unsigned threads = 0;
  bool distributed = false;
  unsigned workers = 0;
  std::string journal_path;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
      distributed = true;
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
      distributed = true;
    } else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
      resume = true;
      distributed = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--workers N] [--journal <path>] "
                   "[--resume <path>]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::vector<scenario::RunSpec> grid = examples::volumetric_example_grid();

  sweep::SweepReport report;
  if (distributed) {
    sweep::DistributedOptions options;
    options.workers = workers;
    options.journal_path = journal_path;
    options.resume = resume;
    options.on_progress = sweep::make_progress_printer();
    sweep::DistributedReport dist = sweep::DistributedRunner(options).run(grid);
    std::printf("\n%s\n\n", dist.summary().c_str());
    report = std::move(dist.sweep);
  } else {
    sweep::SweepOptions options;
    options.threads = threads;
    options.on_progress = sweep::make_progress_printer();
    report = sweep::SweepRunner(options).run(grid);
    std::printf("\n%s\n\n", report.summary().c_str());
  }

  std::vector<const scenario::RunResult*> results;
  for (const sweep::CellOutcome& cell : report.cells) results.push_back(cell.result.get());
  std::printf("%s\n", scenario::render_results_table(results).c_str());

  std::printf("%s\n", report.results_json().c_str());
  return 0;
}
