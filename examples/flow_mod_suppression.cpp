// Case study §VII-B: the flow-modification suppression attack (Fig. 10),
// run against all three controllers exactly as the paper's timing script
// does, printing a compact Fig. 11-style comparison.
//
// Build & run:  ./flow_mod_suppression
#include <cstdio>

#include "attain/monitor/metrics.hpp"
#include "scenario/experiment.hpp"

using namespace attain;
using namespace attain::scenario;

int main() {
  std::printf("ATTAIN case study: flow modification suppression (paper §VII-B)\n");
  std::printf("Attack description:\n%s\n", flow_mod_suppression_dsl().c_str());

  monitor::TextTable table({"controller", "mode", "throughput Mbps", "RTT ms", "ping loss %"});
  for (const ControllerKind kind :
       {ControllerKind::Floodlight, ControllerKind::Pox, ControllerKind::Ryu}) {
    for (const bool attack : {false, true}) {
      RunSpec spec;
      spec.experiment = ExperimentKind::FlowModSuppression;
      spec.controller = kind;
      spec.attack_enabled = attack;
      spec.ping_trials = 10;
      spec.iperf_trials = 2;
      spec.iperf_duration = 2 * kSecond;
      const RunResultPtr result = run(spec);
      const auto& r = dynamic_cast<const SuppressionResult&>(*result);
      table.add_row({to_string(kind), attack ? "attack" : "baseline",
                     monitor::TextTable::num_or_star(r.mean_throughput_mbps()),
                     monitor::TextTable::num_or_star(r.mean_latency_ms(), 3),
                     monitor::TextTable::num(r.ping.loss_fraction() * 100.0, 0)});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("'*' marks the paper's denial-of-service cells (POX under attack: its\n"
              "FLOW_MOD carries the buffered packet, so suppression black-holes it).\n");
  return 0;
}
