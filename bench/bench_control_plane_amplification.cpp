// E6 — §VII-B overhead claim: suppressing flow modifications turns every
// data-plane packet into controller work. For n data packets the paper
// bounds the extra control traffic at up to 2n + 2 messages (a PACKET_IN
// and a PACKET_OUT per packet, plus the suppressed FLOW_MOD pair). This
// bench measures control-plane message counts per delivered data packet
// with and without the attack; the counters render through
// RunResult::row() (the "ctl msgs/pkt" column is the amplification).
#include <cstdio>

#include "sweep/sweep.hpp"

using namespace attain;
using namespace attain::scenario;

int main() {
  std::printf("Control-plane amplification under flow-mod suppression (E6)\n\n");

  const std::vector<RunSpec> grid =
      fig11_grid(/*ping_trials=*/10, /*iperf_trials=*/1, /*iperf_duration=*/2 * kSecond);

  sweep::SweepOptions options;
  options.threads = 0;  // one per core
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  std::vector<const RunResult*> results;
  for (const auto& cell : report.cells) results.push_back(cell.result.get());

  std::printf("%s\n", render_results_table(results).c_str());
  std::printf(
      "Expected shape: without the attack the ratio is ~0 (a handful of flow setups\n"
      "amortized over the whole stream); with it, Floodlight/Ryu pay PACKET_IN +\n"
      "PACKET_OUT per data packet per hop (ratio >> 1, toward the paper's 2n+2 bound\n"
      "per hop), and POX's counts collapse together with its data plane (DoS).\n");
  return report.failed() == 0 ? 0 : 1;
}
