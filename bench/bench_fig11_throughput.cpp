// E1 — Fig. 11(a): iperf throughput between h1 and h6, baseline vs
// flow-modification suppression, for Floodlight / POX / Ryu.
//
// Paper shape to reproduce: baseline near line rate for all three
// controllers; under attack Floodlight and Ryu collapse by an order of
// magnitude (every segment takes a controller round trip) while POX is "*"
// — zero throughput, because its FLOW_MOD carries the buffer_id and
// suppression destroys the packet along with the flow entry.
//
// Full-scale paper parameters (30 x 10 s trials) run with ATTAIN_FULL=1;
// the default is a faster configuration with the same shape. The six cells
// run through the sweep engine (one worker per core); rows render through
// RunResult::row().
#include <cstdio>
#include <cstdlib>

#include "bench_json.hpp"
#include "sweep/sweep.hpp"

using namespace attain;
using namespace attain::scenario;

int main(int argc, char** argv) {
  const bool full = std::getenv("ATTAIN_FULL") != nullptr;

  std::printf("Fig. 11(a) — flow modification suppression: iperf throughput h1 -> h6\n");
  std::printf("(mode: %s; '*' = denial of service, zero throughput)\n\n",
              full ? "full paper parameters" : "quick (set ATTAIN_FULL=1 for 30x10s trials)");

  const std::vector<RunSpec> grid =
      fig11_grid(/*ping_trials=*/0, /*iperf_trials=*/full ? 30u : 5u,
                 /*iperf_duration=*/full ? 10 * kSecond : 3 * kSecond,
                 /*iperf_gap=*/full ? 10 * kSecond : 2 * kSecond);

  sweep::SweepOptions options;
  options.threads = 0;  // one per core
  options.on_progress = sweep::make_progress_printer();
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  std::vector<const RunResult*> results;
  for (const auto& cell : report.cells) results.push_back(cell.result.get());

  std::printf("%s\n", render_results_table(results).c_str());
  std::printf("%s\n\n", report.summary().c_str());
  std::printf("Expected shape: baseline ~90+ Mbps everywhere; Floodlight/Ryu degrade >5x\n"
              "under attack; POX shows '*' (the paper's denial-of-service asterisk).\n");

  const std::string json_path = bench::json_out_path(argc, argv);
  if (!json_path.empty() &&
      !bench::write_bench_json(json_path, "fig11_throughput", full ? "full" : "quick",
                               report.results_json())) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return report.failed() == 0 ? 0 : 1;
}
