// End-to-end reproduction checks for the §VII-B flow-modification
// suppression experiment (Fig. 11): POX suffers a full denial of service
// (buffer_id rides the FLOW_MOD), Floodlight and Ryu degrade but survive
// (the packet rides a separate PACKET_OUT).
#include <gtest/gtest.h>

#include "scenario/experiment.hpp"

namespace attain::scenario {
namespace {

SuppressionResult run_quick(ControllerKind kind, bool attack) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.controller = kind;
  spec.attack_enabled = attack;
  spec.ping_trials = 8;
  spec.iperf_trials = 1;
  spec.iperf_duration = 1 * kSecond;
  spec.iperf_gap = 1 * kSecond;
  const RunResultPtr result = run(spec);
  return dynamic_cast<const SuppressionResult&>(*result);
}

TEST(Suppression, PoxDeniedOfService) {
  const SuppressionResult result = run_quick(ControllerKind::Pox, true);
  // The paper's asterisk: zero throughput, infinite latency.
  EXPECT_EQ(result.ping.received(), 0u);
  EXPECT_FALSE(result.mean_latency_ms().has_value());
  EXPECT_FALSE(result.mean_throughput_mbps().has_value());
  EXPECT_GT(result.flow_mods_suppressed, 0u);
}

TEST(Suppression, FloodlightDegradedButAlive) {
  const SuppressionResult attacked = run_quick(ControllerKind::Floodlight, true);
  const SuppressionResult baseline = run_quick(ControllerKind::Floodlight, false);

  // Alive: pings answered, some bytes move.
  EXPECT_GE(attacked.ping.received(), attacked.ping.sent() - 1);
  ASSERT_TRUE(attacked.mean_throughput_mbps().has_value());
  ASSERT_TRUE(baseline.mean_throughput_mbps().has_value());
  // Degraded: at least 5x throughput loss and higher latency than baseline.
  EXPECT_LT(*attacked.mean_throughput_mbps(), *baseline.mean_throughput_mbps() / 5.0);
  ASSERT_TRUE(attacked.mean_latency_ms().has_value());
  ASSERT_TRUE(baseline.mean_latency_ms().has_value());
  EXPECT_GT(*attacked.mean_latency_ms(), *baseline.mean_latency_ms());
}

TEST(Suppression, RyuDegradedButAlive) {
  const SuppressionResult attacked = run_quick(ControllerKind::Ryu, true);
  const SuppressionResult baseline = run_quick(ControllerKind::Ryu, false);
  EXPECT_GE(attacked.ping.received(), attacked.ping.sent() - 1);
  ASSERT_TRUE(attacked.mean_throughput_mbps().has_value());
  EXPECT_LT(*attacked.mean_throughput_mbps(), *baseline.mean_throughput_mbps() / 5.0);
}

TEST(Suppression, ControlPlaneTrafficAmplified) {
  // §VII-B: for n data packets, suppression can generate up to 2n+2 extra
  // controller messages. Compare PACKET_IN counts with and without the
  // attack on the same workload.
  const SuppressionResult attacked = run_quick(ControllerKind::Floodlight, true);
  const SuppressionResult baseline = run_quick(ControllerKind::Floodlight, false);
  EXPECT_GT(attacked.packet_ins, 10 * baseline.packet_ins);
  EXPECT_GT(attacked.packet_outs, baseline.packet_outs);
}

TEST(Suppression, BaselineUnaffectedByInjectorPresence) {
  // Without the attack the injector still proxies everything; throughput
  // must match the no-injector expectations (line rate).
  const SuppressionResult baseline = run_quick(ControllerKind::Pox, false);
  ASSERT_TRUE(baseline.mean_throughput_mbps().has_value());
  EXPECT_GT(*baseline.mean_throughput_mbps(), 60.0);
  EXPECT_EQ(baseline.ping.received(), baseline.ping.sent());
  EXPECT_EQ(baseline.flow_mods_suppressed, 0u);
}

TEST(Suppression, SuppressedCountMatchesObservedFlowMods) {
  const SuppressionResult attacked = run_quick(ControllerKind::Floodlight, true);
  // Every observed FLOW_MOD on any connection was dropped.
  EXPECT_EQ(attacked.flow_mods_observed, attacked.flow_mods_suppressed);
  EXPECT_GT(attacked.flow_mods_observed, 0u);
}

}  // namespace
}  // namespace attain::scenario
