// Tests for the experiment harness itself plus the controller statistics
// path end to end: polling flow stats over the live (proxied) control
// plane, and blinding the controller by suppressing STATS_REPLYs — an
// attack on the monitoring workflows the paper's monitors feed.
#include <gtest/gtest.h>

#include "attain/dsl/parser.hpp"
#include "attain/dsl/templates.hpp"
#include "scenario/experiment.hpp"

namespace attain::scenario {
namespace {

// Sends a STATS_REQUEST down control connection `conn` from the controller
// end of its channel, the way the controller's own sends travel.
void request_stats(Testbed& bed, std::size_t conn, ofp::StatsRequest request) {
  const auto xid = static_cast<std::uint32_t>(0x5000 + conn);
  bed.channels().at(conn)->send_from_controller(
      chan::Envelope(ofp::make_message(xid, std::move(request))));
}

void request_flow_stats(Testbed& bed, std::size_t conn) {
  ofp::FlowStatsRequest body;
  body.match = ofp::Match::wildcard_all();
  request_stats(bed, conn, ofp::StatsRequest{0, body});
}

TEST(Harness, LookupsValidateKinds) {
  Testbed bed(make_enterprise_model());
  EXPECT_NO_THROW(bed.host("h3"));
  EXPECT_NO_THROW(bed.switch_named("s2"));
  EXPECT_THROW(bed.host("s1"), std::invalid_argument);
  EXPECT_THROW(bed.switch_named("h1"), std::invalid_argument);
  EXPECT_THROW(bed.host("nope"), topo::ModelError);
}

TEST(Harness, ArmRejectsBadDslEagerly) {
  Testbed bed(make_enterprise_model());
  // Parse and compile errors surface at scheduling time, not at t=when.
  EXPECT_THROW(bed.arm_attack_at(seconds(1), "this is not DSL"), dsl::ParseError);
  EXPECT_THROW(bed.arm_attack_at(seconds(1), "attacker { on (c1, s1) grant tls; }"),
               std::invalid_argument);  // no attack block
  const std::string needs_payload = R"(
attacker { on (c1, s1) grant tls; }
attack x { start state s { rule r on (c1, s1) { when msg.type == FLOW_MOD; do { drop(msg); } } } }
)";
  EXPECT_THROW(bed.arm_attack_at(seconds(1), needs_payload), dsl::CompileError);
}

TEST(Harness, SuppressionResultHelpers) {
  SuppressionResult r;
  EXPECT_FALSE(r.mean_throughput_mbps().has_value());  // no trials
  r.iperf_mbps = {0.0, 0.0};
  EXPECT_FALSE(r.mean_throughput_mbps().has_value());  // all-zero = "*"
  r.iperf_mbps = {80.0, 90.0};
  ASSERT_TRUE(r.mean_throughput_mbps().has_value());
  EXPECT_DOUBLE_EQ(*r.mean_throughput_mbps(), 85.0);
  EXPECT_FALSE(r.mean_latency_ms().has_value());  // no pings answered
}

TEST(Harness, RenderTable2MarksMissingCells) {
  std::vector<InterruptionResult> partial;
  InterruptionResult one;
  one.controller = ControllerKind::Pox;
  one.s2_fail_secure = false;
  one.ext_to_ext_t30 = true;
  partial.push_back(one);
  const std::string table = render_table2(partial);
  EXPECT_NE(table.find("?"), std::string::npos);  // unknown cells marked
  EXPECT_NE(table.find("POX/safe"), std::string::npos);
}

TEST(StatsPath, FlowStatsPollingWorksEndToEnd) {
  TestbedOptions options;
  options.controller = ControllerKind::Ryu;
  Testbed bed(make_enterprise_model(), options);
  bed.connect_switches_at(seconds(1));

  auto ping = std::make_unique<dpl::PingApp>(bed.host("h1"), bed.host("h6").ip());
  bed.scheduler().at(seconds(3), [&] { ping->start(5); });
  // Poll flow stats on every connection after traffic has installed flows.
  bed.scheduler().at(seconds(10), [&] {
    for (std::size_t conn = 0; conn < bed.controller().connection_count(); ++conn) {
      request_flow_stats(bed, conn);
    }
  });
  bed.run_until(seconds(12));

  EXPECT_EQ(bed.controller().stats_replies_received(), 4u);
  // At least one switch reports flow entries with nonzero packet counts.
  bool counted_traffic = false;
  for (std::size_t conn = 0; conn < bed.controller().connection_count(); ++conn) {
    const auto& reply = bed.controller().last_stats_reply(conn);
    ASSERT_TRUE(reply.has_value()) << "conn " << conn;
    const auto& entries = std::get<std::vector<ofp::FlowStatsEntry>>(reply->body);
    for (const auto& entry : entries) {
      if (entry.packet_count > 0) counted_traffic = true;
    }
  }
  EXPECT_TRUE(counted_traffic);
}

TEST(StatsPath, StatsBlindingAttackHidesReplies) {
  // Suppressing STATS_REPLY on (c1, s4) blinds the controller's monitoring
  // of that switch while the others keep reporting.
  TestbedOptions options;
  options.controller = ControllerKind::Ryu;
  Testbed bed(make_enterprise_model(), options);
  bed.arm_attack_at(seconds(0.5), dsl::templates::suppress_type({{"c1", "s4"}}, "STATS_REPLY"));
  bed.connect_switches_at(seconds(1));
  bed.scheduler().at(seconds(5), [&] {
    for (std::size_t conn = 0; conn < bed.controller().connection_count(); ++conn) {
      request_flow_stats(bed, conn);
    }
  });
  bed.run_until(seconds(8));
  EXPECT_EQ(bed.controller().stats_replies_received(), 3u);
  EXPECT_GE(bed.monitor().count(monitor::EventKind::MessageDropped), 1u);
}

TEST(StatsPath, PortStatsPolling) {
  TestbedOptions options;
  options.controller = ControllerKind::Pox;
  Testbed bed(make_enterprise_model(), options);
  bed.connect_switches_at(seconds(1));
  bed.scheduler().at(seconds(3), [&] {
    request_stats(bed, 0,
                  ofp::StatsRequest{0, ofp::PortStatsRequest{
                                           static_cast<std::uint16_t>(ofp::Port::None)}});
  });
  bed.run_until(seconds(5));
  const auto& reply = bed.controller().last_stats_reply(0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->stats_type(), ofp::StatsType::Port);
}

}  // namespace
}  // namespace attain::scenario
