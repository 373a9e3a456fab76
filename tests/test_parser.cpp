#include "attain/dsl/parser.hpp"

#include <gtest/gtest.h>

#include "support/enterprise_fixtures.hpp"

namespace attain::dsl {
namespace {

const char* kTinySystem = R"(
system {
  controller c1 { ip "10.0.100.1"; port 6633; }
  switch s1 { dpid 1; ports 4; fail_mode safe; }
  switch s2 { dpid 2; ports 4; fail_mode secure; }
  host h1 { mac "00:00:00:00:00:01"; ip "10.0.0.1"; }
  host h2 { mac "00:00:00:00:00:02"; ip "10.0.0.2"; }
  link h1 -- s1:1;
  link s1:3 -- s2:1;
  link h2 -- s2:2;
  connection c1 -> s1;
  connection c1 -> s2 tls;
}
)";

TEST(Parser, ParsesSystemBlock) {
  const Document doc = parse_document(kTinySystem);
  ASSERT_TRUE(doc.has_system);
  EXPECT_NO_THROW(doc.system.validate());
  EXPECT_EQ(doc.system.controllers().size(), 1u);
  EXPECT_EQ(doc.system.switches().size(), 2u);
  EXPECT_EQ(doc.system.hosts().size(), 2u);
  EXPECT_EQ(doc.system.links().size(), 3u);
  EXPECT_TRUE(doc.system.switch_at(doc.system.require("s2")).fail_secure);
  EXPECT_FALSE(doc.system.switch_at(doc.system.require("s1")).fail_secure);
  EXPECT_EQ(doc.system.controllers()[0].listen_port, 6633);
  EXPECT_EQ(doc.system.hosts()[1].ip.to_string(), "10.0.0.2");
  ASSERT_EQ(doc.system.control_connections().size(), 2u);
  EXPECT_FALSE(doc.system.control_connections()[0].tls);
  EXPECT_TRUE(doc.system.control_connections()[1].tls);
}

TEST(Parser, ParsesAttackerBlock) {
  const std::string source = std::string(kTinySystem) + R"(
attacker {
  on (c1, s1) grant no_tls;
  on (c1, s2) grant tls;
}
)";
  const Document doc = parse_document(source);
  const ConnectionId c1s1{doc.system.require("c1"), doc.system.require("s1")};
  const ConnectionId c1s2{doc.system.require("c1"), doc.system.require("s2")};
  EXPECT_EQ(doc.capabilities.capabilities_on(c1s1), model::CapabilitySet::no_tls());
  EXPECT_EQ(doc.capabilities.capabilities_on(c1s2), model::CapabilitySet::tls());
}

TEST(Parser, ParsesExplicitCapabilityList) {
  const std::string source = std::string(kTinySystem) + R"(
attacker {
  on (c1, s1) grant { DropMessage, read_message_metadata };
}
)";
  const Document doc = parse_document(source);
  const ConnectionId conn{doc.system.require("c1"), doc.system.require("s1")};
  const auto caps = doc.capabilities.capabilities_on(conn);
  EXPECT_EQ(caps.size(), 2u);
  EXPECT_TRUE(caps.contains(model::Capability::DropMessage));
  EXPECT_TRUE(caps.contains(model::Capability::ReadMessageMetadata));
}

TEST(Parser, ParsesAttackWithRulesAndStates) {
  const std::string source = std::string(kTinySystem) + R"(
attacker { on (c1, s1) grant no_tls; }
attack demo {
  deque counter = [0];
  start state sigma1 {
    rule phi1 on (c1, s1) {
      requires { ReadMessage, DropMessage };
      when msg.type == FLOW_MOD and msg.field("buffer_id") != NO_BUFFER;
      do { drop(msg); prepend(counter, examine_front(counter) + 1); goto(sigma2); }
    }
  }
  state sigma2;
}
)";
  const Document doc = parse_document(source);
  ASSERT_EQ(doc.attacks.size(), 1u);
  const lang::Attack& attack = doc.attacks[0];
  EXPECT_EQ(attack.name, "demo");
  EXPECT_EQ(attack.start_state, "sigma1");
  ASSERT_EQ(attack.states.size(), 2u);
  EXPECT_TRUE(attack.states[1].is_end());
  ASSERT_EQ(attack.states[0].rules.size(), 1u);
  const lang::Rule& rule = attack.states[0].rules[0];
  EXPECT_EQ(rule.name, "phi1");
  EXPECT_EQ(rule.connection.sw, doc.system.require("s1"));
  EXPECT_TRUE(rule.capabilities.contains(model::Capability::DropMessage));
  ASSERT_EQ(rule.actions.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<lang::ActDrop>(rule.actions[0]));
  EXPECT_TRUE(std::holds_alternative<lang::ActPrepend>(rule.actions[1]));
  EXPECT_TRUE(std::holds_alternative<lang::ActGoTo>(rule.actions[2]));
  ASSERT_EQ(attack.deques.size(), 1u);
  EXPECT_EQ(attack.deques[0].first, "counter");
  ASSERT_EQ(attack.deques[0].second.size(), 1u);
  EXPECT_NO_THROW(attack.validate_structure());
}

TEST(Parser, FirstStateIsDefaultStart) {
  const std::string source = std::string(kTinySystem) + R"(
attack demo { state alpha; state beta; }
)";
  const Document doc = parse_document(source);
  EXPECT_EQ(doc.attacks[0].start_state, "alpha");
}

TEST(Parser, TwoStartStatesRejected) {
  const std::string source = std::string(kTinySystem) + R"(
attack demo { start state a; start state b; }
)";
  EXPECT_THROW(parse_document(source), ParseError);
}

TEST(Parser, ExpressionPrecedenceAndParens) {
  const std::string source = std::string(kTinySystem) + R"(
attack demo {
  start state s {
    rule r on (c1, s1) {
      when not (msg.length == 8) and msg.id >= 2 or msg.length < 4;
      do { pass(msg); }
    }
  }
}
)";
  const Document doc = parse_document(source);
  const std::string rendered = doc.attacks[0].states[0].rules[0].conditional->to_string();
  // or binds loosest: ((not(...) and ...) or ...)
  EXPECT_NE(rendered.find("or"), std::string::npos);
  EXPECT_NE(rendered.find("not"), std::string::npos);
}

TEST(Parser, IpMacAndEntityLiterals) {
  const std::string source = std::string(kTinySystem) + R"(
attack demo {
  start state s {
    rule r on (c1, s1) {
      when msg.field("match.nw_src") == ip(h2)
           and msg.field("match.dl_src") == mac("00:00:00:00:00:01")
           and msg.source == c1
           and msg.field("match.nw_dst") in { ip("10.0.0.9"), ip(h1) };
      do { pass(msg); }
    }
  }
}
)";
  const Document doc = parse_document(source);
  const std::string rendered = doc.attacks[0].states[0].rules[0].conditional->to_string();
  EXPECT_NE(rendered.find(std::to_string(pkt::Ipv4Address::parse("10.0.0.2").value)),
            std::string::npos);
  EXPECT_NE(rendered.find("msg.source"), std::string::npos);
}

TEST(Parser, TimeUnitsInActions) {
  const std::string source = std::string(kTinySystem) + R"(
attack demo {
  start state s {
    rule r on (c1, s1) {
      when 1;
      do { delay(msg, 1.5 s); sleep(250 ms); }
    }
  }
}
)";
  const Document doc = parse_document(source);
  const auto& actions = doc.attacks[0].states[0].rules[0].actions;
  EXPECT_EQ(std::get<lang::ActDelay>(actions[0]).delay, seconds(1.5));
  EXPECT_EQ(std::get<lang::ActSleep>(actions[1]).duration, 250 * kMillisecond);
}

TEST(Parser, AllActionFormsParse) {
  const std::string source = std::string(kTinySystem) + R"(
attack demo {
  deque d;
  start state s {
    rule r on (c1, s1) {
      when 1;
      do {
        drop(msg); pass(msg); duplicate(msg); delay(msg, 1 s);
        read_meta(msg, "note"); read(msg);
        modify(msg, "xid", 7); redirect(msg, s2); fuzz(msg, 4);
        inject(hello, to_switch); inject(flow_mod_delete_all, to_controller);
        send_front(d); send_end(d);
        prepend(d, msg); append(d, msg.length); shift(d); pop(d);
        sleep(1 s); syscmd(h1, "iperf -s"); goto(s);
      }
    }
  }
}
)";
  const Document doc = parse_document(source);
  EXPECT_EQ(doc.attacks[0].states[0].rules[0].actions.size(), 20u);
  const auto& actions = doc.attacks[0].states[0].rules[0].actions;
  EXPECT_EQ(std::get<lang::ActModifyField>(actions[6]).path, "xid");
  EXPECT_EQ(std::get<lang::ActFuzz>(actions[8]).bit_flips, 4u);
  EXPECT_EQ(std::get<lang::ActInject>(actions[9]).message.type(), ofp::MsgType::Hello);
  EXPECT_EQ(std::get<lang::ActInject>(actions[10]).direction,
            lang::Direction::SwitchToController);
  EXPECT_TRUE(std::get<lang::ActSendStored>(actions[12]).from_end);
  EXPECT_EQ(std::get<lang::ActPrepend>(actions[13]).value, nullptr);  // bare msg
  EXPECT_NE(std::get<lang::ActAppend>(actions[14]).value, nullptr);
  EXPECT_EQ(std::get<lang::ActSysCmd>(actions[18]).command, "iperf -s");
}

TEST(Parser, ErrorsCarryPosition) {
  EXPECT_THROW(parse_document("bogus {}"), ParseError);
  EXPECT_THROW(parse_document("system { controller }"), ParseError);
  const std::string source = std::string(kTinySystem) + "attack demo { start state s { rule }}";
  EXPECT_THROW(parse_document(source), ParseError);
}

TEST(Parser, UnknownEntityRejected) {
  const std::string source = std::string(kTinySystem) + R"(
attacker { on (c1, s9) grant no_tls; }
)";
  EXPECT_THROW(parse_document(source), ParseError);
}

TEST(Parser, UnknownCapabilityRejected) {
  const std::string source = std::string(kTinySystem) + R"(
attacker { on (c1, s1) grant { TeleportMessage }; }
)";
  EXPECT_THROW(parse_document(source), ParseError);
}

TEST(Parser, AttackerBeforeSystemRejected) {
  EXPECT_THROW(parse_document("attacker { on (c1, s1) grant no_tls; }"), ParseError);
}

TEST(Parser, ExternalModelSupportsAttackOnlySources) {
  const topo::SystemModel model = scenario::make_enterprise_model();
  const Document doc = parse_document(scenario::flow_mod_suppression_dsl(), model);
  ASSERT_EQ(doc.attacks.size(), 1u);
  EXPECT_EQ(doc.attacks[0].states[0].rules.size(), 4u);
  // A `system` block is rejected when an external model is supplied.
  EXPECT_THROW(parse_document(kTinySystem, model), ParseError);
}

TEST(Parser, EnterpriseDslRoundTripsThroughParser) {
  const Document doc = parse_document(scenario::enterprise_model_dsl());
  EXPECT_NO_THROW(doc.system.validate());
  EXPECT_EQ(doc.system.switches().size(), 4u);
  EXPECT_EQ(doc.system.hosts().size(), 6u);
  // Same shortest path as the programmatic model.
  const auto path = doc.system.shortest_path(doc.system.require("h1"), doc.system.require("h6"));
  EXPECT_EQ(path.size(), 4u);
}

TEST(Parser, MessageTypeConstantsMatchWire) {
  const std::string source = std::string(kTinySystem) + R"(
attack demo {
  start state s {
    rule r on (c1, s1) { when msg.type == PACKET_IN; do { pass(msg); } }
  }
}
)";
  const Document doc = parse_document(source);
  const std::string rendered = doc.attacks[0].states[0].rules[0].conditional->to_string();
  EXPECT_NE(rendered.find(std::to_string(static_cast<int>(ofp::MsgType::PacketIn))),
            std::string::npos);
}

}  // namespace
}  // namespace attain::dsl
