// Robustness properties: the framework's outer surfaces must be total —
// the DSL front end only ever fails with typed errors, the injector never
// crashes on arbitrary input or attack combinations, and accounting
// invariants hold across random workloads.
#include <gtest/gtest.h>

#include "attain/dsl/lexer.hpp"
#include "attain/dsl/parser.hpp"
#include "attain/dsl/templates.hpp"
#include "attain/inject/proxy.hpp"
#include "common/rng.hpp"
#include "ofp/codec.hpp"
#include "packet/codec.hpp"
#include "scenario/enterprise.hpp"
#include "swsim/switch.hpp"

namespace attain {
namespace {

TEST(ParserRobustness, RandomTokenSoupNeverCrashes) {
  // Random syntactically plausible fragments: the parser must either
  // succeed or throw ParseError/LexError — never crash or hang.
  const char* fragments[] = {
      "system",  "attacker", "attack",  "{",      "}",        "(",     ")",
      "rule",    "when",     "do",      "state",  "start",    "deque", "on",
      "msg",     ".",        "type",    "==",     "FLOW_MOD", ";",     "drop",
      "c1",      "s1",       "grant",   "no_tls", "ip",       "\"10.0.0.1\"",
      "1",       "2.5",      "s",       "and",    "or",       "not",   "in",
      "goto",    "pass",     "-",       "+",      "[",        "]",     ",",
      "examine_front", "len", "rand",   "->",     "--",       "=",
  };
  Rng rng(7777);
  const topo::SystemModel model = scenario::make_enterprise_model();
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string source;
    const std::size_t n = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < n; ++i) {
      source += fragments[rng.next_below(std::size(fragments))];
      source += ' ';
    }
    try {
      dsl::parse_document(source, model);
      ++parsed_ok;
    } catch (const dsl::ParseError&) {
    } catch (const dsl::LexError&) {
    }
  }
  // Almost everything is rejected; the point is nothing escapes the two
  // typed errors above.
  EXPECT_LT(parsed_ok, 100);
}

TEST(ParserRobustness, TruncationsOfValidSourceFailCleanly) {
  const std::string source = scenario::connection_interruption_dsl();
  const topo::SystemModel model = scenario::make_enterprise_model();
  for (std::size_t cut = 0; cut < source.size(); cut += 7) {
    try {
      dsl::parse_document(source.substr(0, cut), model);
    } catch (const dsl::ParseError&) {
    } catch (const dsl::LexError&) {
    }
  }
  SUCCEED();
}

TEST(InjectorRobustness, ArbitraryBytesAndAccountingInvariants) {
  // Feed the armed injector random byte blobs and random valid messages;
  // nothing throws, and delivered <= interposed + injected always holds.
  sim::Scheduler sched;
  const topo::SystemModel model = scenario::make_enterprise_model();
  monitor::Monitor monitor;
  monitor.set_counters_only(true);
  inject::RuntimeInjector injector(sched, model, monitor);
  std::size_t delivered = 0;
  std::vector<ConnectionId> conns;
  for (const auto& conn : model.control_connections()) {
    conns.push_back(conn.id);
    injector.attach_connection(conn.id, [&](chan::Envelope) { ++delivered; },
                               [&](chan::Envelope) { ++delivered; });
  }
  const dsl::Document doc =
      dsl::parse_document(scenario::flow_mod_suppression_dsl(), model);
  const model::CapabilityMap caps = doc.capabilities;
  const dsl::CompiledAttack attack = dsl::compile(doc.attacks.at(0), model, caps);
  injector.arm(attack, caps);

  Rng rng(31337);
  for (int i = 0; i < 5000; ++i) {
    const ConnectionId conn = conns[rng.next_below(conns.size())];
    auto input = rng.chance(0.5) ? injector.switch_side_input(conn)
                                 : injector.controller_side_input(conn);
    if (rng.chance(0.3)) {
      // Random garbage (must be forwarded opaque, not crash).
      Bytes blob(rng.next_below(64));
      for (auto& b : blob) b = static_cast<std::uint8_t>(rng.next_below(256));
      input(blob);
    } else {
      // A random valid message, possibly bit-flipped.
      ofp::Message msg;
      switch (rng.next_below(4)) {
        case 0: msg = ofp::make_message(static_cast<std::uint32_t>(i), ofp::EchoRequest{}); break;
        case 1: {
          ofp::FlowMod mod;
          mod.match = ofp::Match::wildcard_all();
          mod.actions = ofp::output_to(std::uint16_t{2});
          msg = ofp::make_message(static_cast<std::uint32_t>(i), std::move(mod));
          break;
        }
        case 2: msg = ofp::make_message(static_cast<std::uint32_t>(i), ofp::PacketIn{}); break;
        default: msg = ofp::make_message(static_cast<std::uint32_t>(i), ofp::BarrierRequest{});
      }
      Bytes wire = ofp::encode(msg);
      if (rng.chance(0.2) && wire.size() > 8) {
        wire[8 + rng.next_below(wire.size() - 8)] ^= 0xff;
      }
      input(wire);
    }
  }
  sched.run();
  const inject::InjectorStats& stats = injector.stats();
  EXPECT_EQ(stats.messages_interposed, 5000u);
  EXPECT_LE(delivered, stats.messages_interposed);
  EXPECT_EQ(stats.messages_delivered, delivered);
  EXPECT_EQ(stats.messages_interposed,
            stats.messages_delivered + stats.messages_suppressed);
  EXPECT_EQ(monitor.count(monitor::EventKind::MessageObserved), 5000u);
}

TEST(InjectorRobustness, TemplateAttacksSurviveRandomTraffic) {
  // Every template attack armed in turn against a random message storm.
  const topo::SystemModel model = scenario::make_enterprise_model();
  const std::vector<std::string> sources = {
      dsl::templates::suppress_type({{"c1", "s1"}}, "ECHO_REQUEST"),
      dsl::templates::count_gate({"c1", "s1"}, "ECHO_REQUEST", 3),
      dsl::templates::delay_all({{"c1", "s1"}}, 0.01),
      dsl::templates::interrupt_after({"c1", "s1"}, "FLOW_MOD"),
      dsl::templates::stochastic_drop({"c1", "s1"}, 50),
      dsl::templates::fuzz_type({"c1", "s1"}, "ECHO_REQUEST", 8),
      dsl::templates::replay_amplifier({"c1", "s1"}, "ECHO_REQUEST", 2),
  };
  Rng rng(99);
  for (const std::string& source : sources) {
    sim::Scheduler sched;
    monitor::Monitor monitor;
    monitor.set_counters_only(true);
    inject::RuntimeInjector injector(sched, model, monitor);
    const ConnectionId conn{model.require("c1"), model.require("s1")};
    injector.attach_connection(conn, [](chan::Envelope) {}, [](chan::Envelope) {});
    const dsl::Document doc = dsl::parse_document(source, model);
    const model::CapabilityMap caps = doc.capabilities;
    const dsl::CompiledAttack attack = dsl::compile(doc.attacks.at(0), model, caps);
    injector.arm(attack, caps);
    for (int i = 0; i < 500; ++i) {
      ofp::Message msg = rng.chance(0.7)
                             ? ofp::make_message(static_cast<std::uint32_t>(i), ofp::EchoRequest{})
                             : ofp::make_message(static_cast<std::uint32_t>(i), [] {
                                 ofp::FlowMod mod;
                                 mod.match = ofp::Match::wildcard_all();
                                 return mod;
                               }());
      auto input = rng.chance(0.5) ? injector.switch_side_input(conn)
                                   : injector.controller_side_input(conn);
      input(ofp::encode(msg));
    }
    sched.run();
    EXPECT_EQ(injector.stats().messages_interposed, 500u) << source;
  }
}

TEST(SwitchRobustness, BufferExhaustionFallsBackToUnbuffered) {
  sim::Scheduler sched;
  swsim::SwitchConfig config;
  config.name = "s1";
  config.dpid = 1;
  config.num_ports = 2;
  config.buffer_capacity = 4;  // tiny pool
  swsim::OpenFlowSwitch sw(sched, config);
  std::vector<ofp::Message> control;
  sw.set_control_sender([&](chan::Envelope e) {
      ASSERT_NE(e.message(), nullptr);
      control.push_back(*e.message());
    });
  sw.set_packet_sender([](std::uint16_t, pkt::Packet) {});
  sw.connect();
  sw.on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
  sw.on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(2, ofp::FeaturesRequest{}))));
  control.clear();

  for (int i = 0; i < 8; ++i) {
    sw.on_packet(1, pkt::make_icmp_echo(pkt::MacAddress::from_u64(0xa + i),
                                        pkt::MacAddress::from_u64(0xbb),
                                        pkt::Ipv4Address{static_cast<std::uint32_t>(i)},
                                        pkt::Ipv4Address{99}, pkt::IcmpType::EchoRequest, 1, 1,
                                        0));
  }
  ASSERT_EQ(control.size(), 8u);
  int buffered = 0;
  int unbuffered = 0;
  for (const ofp::Message& m : control) {
    const auto& pin = m.as<ofp::PacketIn>();
    if (pin.buffer_id == ofp::kNoBuffer) {
      ++unbuffered;
      // Unbuffered PACKET_INs ship the whole frame.
      EXPECT_EQ(pin.data.size(), pin.total_len);
    } else {
      ++buffered;
      EXPECT_LE(pin.data.size(), std::size_t{128});
    }
  }
  EXPECT_EQ(buffered, 4);
  EXPECT_EQ(unbuffered, 4);
}

}  // namespace
}  // namespace attain
