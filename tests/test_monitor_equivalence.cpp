// The counters-only monitor must not change what a run computes. Every
// experiment cell runs with monitor_counters_only (the default), which lets
// the proxy take its counter-only branch for frames no rule can touch; a
// full-event monitor forces every frame through the scalar interpose. Both
// runs of the same script must agree on every counter and on the number of
// scheduler events executed.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "scenario/experiment.hpp"

namespace attain::scenario {
namespace {

using Counters = std::map<std::string, std::uint64_t>;

/// Every counter the proxy path touches, keyed by a readable name so a
/// mismatch names the counter that moved.
Counters snapshot(Testbed& bed) {
  Counters c;
  const monitor::Monitor& mon = bed.monitor();
  for (unsigned k = 0; k <= static_cast<unsigned>(monitor::EventKind::ConnectionAttached); ++k) {
    const auto kind = static_cast<monitor::EventKind>(k);
    c["monitor.kind." + monitor::to_string(kind)] = mon.count(kind);
  }
  for (unsigned t = 0; t <= static_cast<unsigned>(ofp::MsgType::BarrierReply); ++t) {
    const auto type = static_cast<ofp::MsgType>(t);
    c["monitor.type." + ofp::to_string(type)] = mon.observed_of_type(type);
  }
  for (const topo::ControlConnSpec& conn : bed.model().control_connections()) {
    const std::string name = bed.model().name_of(conn.id.sw);
    c["monitor.conn." + name + ".s2c"] =
        mon.observed_on(conn.id, lang::Direction::SwitchToController);
    c["monitor.conn." + name + ".c2s"] =
        mon.observed_on(conn.id, lang::Direction::ControllerToSwitch);
  }

  const inject::InjectorStats& inj = bed.injector().stats();
  c["injector.interposed"] = inj.messages_interposed;
  c["injector.delivered"] = inj.messages_delivered;
  c["injector.suppressed"] = inj.messages_suppressed;
  c["injector.syscmds"] = inj.syscmds_executed;
  c["injector.undeliverable"] = inj.undeliverable;

  if (const inject::AttackExecutor* exec = bed.injector().executor()) {
    const inject::ExecutorStats& ex = exec->stats();
    c["executor.processed"] = ex.messages_processed;
    c["executor.rules_evaluated"] = ex.rules_evaluated;
    c["executor.rules_matched"] = ex.rules_matched;
    c["executor.actions"] = ex.actions_executed;
    c["executor.transitions"] = ex.state_transitions;
    c["executor.capability_violations"] = ex.capability_violations;
    c["executor.eval_errors"] = ex.eval_errors;
    c["executor.skipped_by_guard"] = ex.rules_skipped_by_guard;
    c["executor.programs"] = ex.programs_executed;
  }

  const chan::DirectionCounters totals = bed.channel_totals();
  c["channel.frames"] = totals.frames;
  c["channel.forwarded"] = totals.forwarded;
  c["channel.suppressed"] = totals.suppressed;
  c["channel.decode_errors"] = totals.decode_errors;
  c["channel.codec_ops_saved"] = totals.codec_ops_saved;

  c["sched.events_executed"] = bed.scheduler().events_executed();
  return c;
}

TestbedOptions options_for(ControllerKind controller, bool counters_only) {
  TestbedOptions options;
  options.controller = controller;
  options.monitor_counters_only = counters_only;
  return options;
}

/// The §VII-B (Fig. 11) script with the suppression attack armed at 5 s,
/// shortened to 4 pings and one 1 s iperf trial.
Counters run_suppression(ControllerKind controller, bool counters_only) {
  Testbed bed(make_enterprise_model(), options_for(controller, counters_only));
  bed.arm_attack_at(seconds(5), flow_mod_suppression_dsl());
  bed.connect_switches_at(seconds(6));
  dpl::PingApp ping(bed.host("h1"), bed.host("h6").ip(), /*icmp_id=*/100);
  bed.scheduler().at(seconds(30), [&] { ping.start(4); });
  dpl::IperfClientConfig cc;
  dpl::IperfServer server(bed.host("h6"), cc.server_port);
  dpl::IperfClient client(bed.host("h1"), bed.host("h6").ip(), cc);
  bed.scheduler().at(seconds(40), [&] { client.start(1 * kSecond); });
  bed.run_until(seconds(44));

  Counters c = snapshot(bed);
  c["ping.received"] = ping.report().received();
  c["iperf.bytes"] = client.result().bytes_acked;
  c["stored_events_nonzero"] = bed.monitor().events().empty() ? 0 : 1;
  return c;
}

/// One §VII-C (Table II) cell: the interruption attack armed at 10 s,
/// switches at 12 s, the four probes at 30/50/95 s, s2 fail-safe.
Counters run_interruption(ControllerKind controller, bool counters_only) {
  Testbed bed(make_enterprise_model(), options_for(controller, counters_only));
  bed.arm_attack_at(seconds(10), connection_interruption_dsl());
  bed.connect_switches_at(seconds(12));
  struct Probe {
    SimTime when;
    const char* src;
    const char* dst;
    unsigned trials;
    std::uint16_t icmp_id;
  };
  const Probe probes[] = {{seconds(30), "h2", "h1", 10, 201},
                          {seconds(30), "h6", "h1", 10, 202},
                          {seconds(50), "h2", "h3", 60, 203},
                          {seconds(95), "h6", "h1", 10, 204}};
  std::vector<std::unique_ptr<dpl::PingApp>> pings;
  for (const Probe& p : probes) {
    pings.push_back(
        std::make_unique<dpl::PingApp>(bed.host(p.src), bed.host(p.dst).ip(), p.icmp_id));
    dpl::PingApp* app = pings.back().get();
    const unsigned trials = p.trials;
    bed.scheduler().at(p.when, [app, trials] { app->start(trials); });
  }
  bed.run_until(seconds(125));

  Counters c = snapshot(bed);
  for (std::size_t i = 0; i < pings.size(); ++i) {
    c["ping" + std::to_string(i) + ".received"] = pings[i]->report().received();
  }
  c["reached_sigma3"] = bed.injector().current_state() == std::optional<std::string>("sigma3");
  c["stored_events_nonzero"] = bed.monitor().events().empty() ? 0 : 1;
  return c;
}

/// The two runs must agree on everything except whether events were stored.
void expect_equivalent(Counters counters_only, Counters full) {
  EXPECT_EQ(counters_only["stored_events_nonzero"], 0u);
  EXPECT_EQ(full["stored_events_nonzero"], 1u);
  counters_only.erase("stored_events_nonzero");
  full.erase("stored_events_nonzero");
  EXPECT_EQ(counters_only, full);
}

TEST(MonitorEquivalence, ArmedSuppressionCountersOnlyMatchesFullMonitor) {
  const Counters counters_only = run_suppression(ControllerKind::Floodlight, true);
  const Counters full = run_suppression(ControllerKind::Floodlight, false);
  // The armed script really exercised both proxy branches.
  EXPECT_GT(counters_only.at("injector.suppressed"), 0u);
  EXPECT_GT(counters_only.at("executor.skipped_by_guard"), 0u);
  EXPECT_GT(counters_only.at("executor.rules_matched"), 0u);
  expect_equivalent(counters_only, full);
}

TEST(MonitorEquivalence, InterruptionCellCountersOnlyMatchesFullMonitor) {
  const Counters counters_only = run_interruption(ControllerKind::Pox, true);
  const Counters full = run_interruption(ControllerKind::Pox, false);
  EXPECT_EQ(counters_only.at("reached_sigma3"), 1u);
  EXPECT_GT(counters_only.at("channel.suppressed"), 0u);
  expect_equivalent(counters_only, full);
}

}  // namespace
}  // namespace attain::scenario
