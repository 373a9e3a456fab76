// Table II via the sweep API: builds the {Floodlight, POX, Ryu} ×
// {fail-safe, fail-secure} grid with scenario::table2_grid(), runs it in
// parallel with sweep::SweepRunner, and renders the paper's table plus the
// per-run row view and the machine-readable JSON document. This is the
// worked example from docs/sweep.md.
//
// `--warm-start {on,off}` toggles copy-on-write warm-start forking
// (default off): with it on, each controller's fail-safe/fail-secure pair
// shares one warm-up and the report counts the forked cells.
//
// `--workers N` switches to the multi-process sweep::DistributedRunner (N
// forked worker processes; the JSON document stays byte-identical to the
// default in-process run). `--journal <path>` records completed cells to a
// resumable campaign journal; `--resume <path>` loads one first and only
// runs what is missing.
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "scenario/experiment.hpp"
#include "sweep/distributed.hpp"
#include "sweep/sweep.hpp"

using namespace attain;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--warm-start {on,off}] [--workers N] [--journal <path>] "
               "[--resume <path>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool warm_start = false;
  bool distributed = false;
  unsigned workers = 0;
  std::string journal_path;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (std::strcmp(argv[i], "--warm-start") == 0 && i + 1 < argc) {
      value = argv[++i];
    } else if (std::strncmp(argv[i], "--warm-start=", 13) == 0) {
      value = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
      distributed = true;
      continue;
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
      distributed = true;
      continue;
    } else if (std::strcmp(argv[i], "--resume") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
      resume = true;
      distributed = true;
      continue;
    } else {
      return usage(argv[0]);
    }
    if (std::strcmp(value, "on") == 0) {
      warm_start = true;
    } else if (std::strcmp(value, "off") == 0) {
      warm_start = false;
    } else {
      std::fprintf(stderr, "--warm-start takes 'on' or 'off', got '%s'\n", value);
      return 2;
    }
  }

  const std::vector<scenario::RunSpec> grid = scenario::table2_grid();

  sweep::SweepReport report;
  if (distributed) {
    sweep::DistributedOptions options;
    options.workers = workers;
    options.warm_start = warm_start;
    options.journal_path = journal_path;
    options.resume = resume;
    options.on_progress = sweep::make_progress_printer();
    sweep::DistributedReport dist = sweep::DistributedRunner(options).run(grid);
    std::printf("\n%s\n\n", dist.summary().c_str());
    report = std::move(dist.sweep);
  } else {
    sweep::SweepOptions options;
    options.threads = 0;  // one per hardware core
    options.warm_start = warm_start;
    options.on_progress = sweep::make_progress_printer();
    report = sweep::SweepRunner(options).run(grid);
    std::printf("\n%s\n\n", report.summary().c_str());
  }

  // Per-run rows through the RunResult::row() interface.
  std::vector<const scenario::RunResult*> results;
  for (const sweep::CellOutcome& cell : report.cells) results.push_back(cell.result.get());
  std::printf("%s\n", scenario::render_results_table(results).c_str());

  // The paper's transposed Table II layout.
  std::printf("%s\n", scenario::render_table2(results).c_str());

  // Machine-readable, deterministic results document — byte-identical for
  // any worker count and for in-process vs distributed execution.
  std::printf("%s\n", report.results_json().c_str());
  return 0;
}
