// E3 — Table II: connection interruption against the DMZ firewall switch
// s2, fail-safe vs fail-secure, for Floodlight / POX / Ryu.
//
// Paper shape: in all fail-safe cases the interrupted switch falls back to
// standalone learning — internal users keep access (t=95) but external
// users gain unauthorized access to internal hosts (t=50). In fail-secure
// cases (excluding Ryu) no new flows are created — no unauthorized access
// but a denial of service for legitimate internal traffic. Ryu never
// triggers rule φ2 (its match wildcards the IP fields the conditional
// inspects), so the attack never reaches σ3 and nothing is interrupted.
//
// The six cells run through the sweep engine (one worker per core) and
// render via RunResult::row() plus the paper's transposed layout.
#include <cstdio>

#include "bench_json.hpp"
#include "scenario/experiment.hpp"
#include "sweep/sweep.hpp"

using namespace attain;
using namespace attain::scenario;

int main(int argc, char** argv) {
  std::printf("Table II — connection interruption experiment (fail-safe vs fail-secure)\n\n");

  sweep::SweepOptions options;
  options.threads = 0;  // one per core
  options.on_progress = sweep::make_progress_printer();
  const sweep::SweepReport report = sweep::SweepRunner(options).run(table2_grid());

  std::vector<const RunResult*> results;
  for (const auto& cell : report.cells) results.push_back(cell.result.get());

  std::printf("%s\n", render_results_table(results).c_str());
  std::printf("%s\n", render_table2(results).c_str());
  std::printf("%s\n\n", report.summary().c_str());
  std::printf(
      "Row 3 'yes' after interruption = unauthorized increased access (fail-safe cases).\n"
      "Row 4 'no' = denial of service against legitimate traffic (fail-secure cases).\n"
      "Ryu columns show no interruption at all: phi2 never fired.\n");

  const std::string json_path = bench::json_out_path(argc, argv);
  if (!json_path.empty() &&
      !bench::write_bench_json(json_path, "table2_interruption", "default",
                               report.results_json())) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  return report.failed() == 0 ? 0 : 1;
}
