// E2 — Fig. 11(b): ping RTT between h1 and h6, baseline vs flow-mod
// suppression, for Floodlight / POX / Ryu.
//
// Paper shape: baseline RTT ~milliseconds for all controllers; under
// attack Floodlight/Ryu rise (per-packet controller round trips at every
// hop) while POX is "*" — latency infinite, no echo ever returns.
//
// The six cells run through the sweep engine (one worker per core); rows
// render through RunResult::row().
#include <cstdio>
#include <cstdlib>

#include "sweep/sweep.hpp"

using namespace attain;
using namespace attain::scenario;

int main() {
  const bool full = std::getenv("ATTAIN_FULL") != nullptr;
  std::printf("Fig. 11(b) — flow modification suppression: ping latency h1 -> h6\n");
  std::printf("(mode: %s; '*' = denial of service, latency infinite)\n\n",
              full ? "full paper parameters (60 trials)" : "quick (20 trials)");

  const std::vector<RunSpec> grid =
      fig11_grid(/*ping_trials=*/full ? 60 : 20, /*iperf_trials=*/0);

  sweep::SweepOptions options;
  options.threads = 0;  // one per core
  options.on_progress = sweep::make_progress_printer();
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  std::vector<const RunResult*> results;
  for (const auto& cell : report.cells) results.push_back(cell.result.get());

  std::printf("%s\n", render_results_table(results).c_str());
  std::printf("%s\n\n", report.summary().c_str());
  std::printf("Expected shape: attack RTT well above baseline for Floodlight/Ryu\n"
              "(every echo takes controller round trips at each hop); POX '*' with 100%% loss.\n");
  return report.failed() == 0 ? 0 : 1;
}
