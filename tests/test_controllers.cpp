#include "ctl/floodlight.hpp"
#include "ctl/pox.hpp"
#include "ctl/ryu.hpp"

#include <gtest/gtest.h>

#include "packet/codec.hpp"
#include "scenario/enterprise.hpp"

namespace attain::ctl {
namespace {

/// Fake switch side of one controller connection.
struct FakeSwitch {
  std::vector<ofp::Message> received;
  ConnHandle conn{0};

  void attach(Controller& controller, std::uint64_t dpid) {
    conn = controller.add_connection(
        [this](chan::Envelope e) {
      ASSERT_NE(e.message(), nullptr);
      received.push_back(*e.message());
    });
    // Handshake: switch HELLO, controller replies HELLO + FEATURES_REQUEST,
    // switch answers FEATURES_REPLY.
    controller.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
    ofp::FeaturesReply features;
    features.datapath_id = dpid;
    controller.on_envelope(
        conn, chan::Envelope(ofp::encode(ofp::make_message(2, std::move(features)))));
    received.clear();
  }

  void packet_in(Controller& controller, const pkt::Packet& packet, std::uint16_t in_port,
                 std::uint32_t buffer_id = 7) {
    ofp::PacketIn pin;
    pin.buffer_id = buffer_id;
    pin.in_port = in_port;
    pin.data = pkt::encode(packet);
    pin.total_len = static_cast<std::uint16_t>(pin.data.size());
    controller.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(5, std::move(pin)))));
  }

  std::vector<ofp::Message> take() {
    auto out = std::move(received);
    received.clear();
    return out;
  }
};

pkt::Packet icmp(std::uint64_t src, std::uint64_t dst) {
  return pkt::make_icmp_echo(pkt::MacAddress::from_u64(src), pkt::MacAddress::from_u64(dst),
                             pkt::Ipv4Address{static_cast<std::uint32_t>(0x0a000000 + src)},
                             pkt::Ipv4Address{static_cast<std::uint32_t>(0x0a000000 + dst)},
                             pkt::IcmpType::EchoRequest, 1, 1, 0);
}

// ---------------------------------------------------------------------------
// POX forwarding.l2_learning
// ---------------------------------------------------------------------------

TEST(Pox, HandshakeRepliesHelloFeaturesSetConfig) {
  sim::Scheduler sched;
  PoxL2Learning pox(sched, 0);
  FakeSwitch sw;
  sw.conn = pox.add_connection([&sw](chan::Envelope e) {
      ASSERT_NE(e.message(), nullptr);
      sw.received.push_back(*e.message());
    });
  pox.on_envelope(sw.conn, chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
  auto out = sw.take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::Hello);
  EXPECT_EQ(out[1].type(), ofp::MsgType::FeaturesRequest);
  ofp::FeaturesReply features;
  features.datapath_id = 0x42;
  pox.on_envelope(sw.conn, chan::Envelope(ofp::encode(ofp::make_message(2, std::move(features)))));
  out = sw.take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::SetConfig);
  EXPECT_EQ(pox.dpid_of(sw.conn), 0x42u);
  EXPECT_TRUE(pox.handshake_complete(sw.conn));
}

TEST(Pox, UnknownDestinationFloodsWithBuffer) {
  sim::Scheduler sched;
  PoxL2Learning pox(sched, 0);
  FakeSwitch sw;
  sw.attach(pox, 1);
  sw.packet_in(pox, icmp(0xa, 0xb), 1, 33);
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type(), ofp::MsgType::PacketOut);
  const auto& po = out[0].as<ofp::PacketOut>();
  EXPECT_EQ(po.buffer_id, 33u);
  EXPECT_TRUE(po.data.empty());
  ASSERT_EQ(po.actions.size(), 1u);
  EXPECT_EQ(std::get<ofp::ActionOutput>(po.actions[0]).port,
            static_cast<std::uint16_t>(ofp::Port::Flood));
}

TEST(Pox, KnownDestinationInstallsExactMatchWithBufferNoPacketOut) {
  // The behaviour behind the Fig. 11 asterisk: the FLOW_MOD is the only
  // message carrying the packet forward.
  sim::Scheduler sched;
  PoxL2Learning pox(sched, 0);
  FakeSwitch sw;
  sw.attach(pox, 1);
  sw.packet_in(pox, icmp(0xb, 0xa), 2, 40);  // learn 0xb on port 2
  sw.take();
  sw.packet_in(pox, icmp(0xa, 0xb), 1, 41);
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type(), ofp::MsgType::FlowMod);
  const auto& mod = out[0].as<ofp::FlowMod>();
  EXPECT_EQ(mod.buffer_id, 41u);  // buffered packet rides the flow-mod
  EXPECT_TRUE(mod.match.is_exact());
  EXPECT_EQ(mod.idle_timeout, PoxL2Learning::kIdleTimeout);
  EXPECT_EQ(mod.hard_timeout, PoxL2Learning::kHardTimeout);
  // Match carries the IP fields (what φ2 of the interruption attack reads).
  EXPECT_EQ(mod.match.nw_src.value, 0x0a00000au);
  EXPECT_EQ(std::get<ofp::ActionOutput>(mod.actions.at(0)).port, 2);
}

TEST(Pox, SamePortDropReleasesBufferWithoutActions) {
  sim::Scheduler sched;
  PoxL2Learning pox(sched, 0);
  FakeSwitch sw;
  sw.attach(pox, 1);
  sw.packet_in(pox, icmp(0xb, 0xa), 2, 50);  // learn b@2
  sw.take();
  sw.packet_in(pox, icmp(0xa, 0xb), 2, 51);  // dst b is on the ingress port
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type(), ofp::MsgType::PacketOut);
  EXPECT_TRUE(out[0].as<ofp::PacketOut>().actions.empty());
}

TEST(Pox, UnbufferedPacketGetsExplicitPacketOut) {
  sim::Scheduler sched;
  PoxL2Learning pox(sched, 0);
  FakeSwitch sw;
  sw.attach(pox, 1);
  sw.packet_in(pox, icmp(0xb, 0xa), 2, ofp::kNoBuffer);
  sw.take();
  sw.packet_in(pox, icmp(0xa, 0xb), 1, ofp::kNoBuffer);
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::FlowMod);
  EXPECT_EQ(out[1].type(), ofp::MsgType::PacketOut);
  EXPECT_FALSE(out[1].as<ofp::PacketOut>().data.empty());
}

TEST(Pox, PerSwitchLearningTables) {
  sim::Scheduler sched;
  PoxL2Learning pox(sched, 0);
  FakeSwitch sw1;
  FakeSwitch sw2;
  sw1.attach(pox, 1);
  sw2.attach(pox, 2);
  sw1.packet_in(pox, icmp(0xb, 0xa), 2);  // learn b on sw1 only
  sw1.take();
  sw2.packet_in(pox, icmp(0xa, 0xb), 1);  // sw2 does not know b -> flood
  const auto out = sw2.take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::PacketOut);
}

// ---------------------------------------------------------------------------
// Ryu simple_switch
// ---------------------------------------------------------------------------

TEST(Ryu, KnownDestinationInstallsL2MatchAndSeparatePacketOut) {
  sim::Scheduler sched;
  RyuSimpleSwitch ryu(sched, 0);
  FakeSwitch sw;
  sw.attach(ryu, 1);
  sw.packet_in(ryu, icmp(0xb, 0xa), 2, 60);
  sw.take();
  sw.packet_in(ryu, icmp(0xa, 0xb), 1, 61);
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 2u);
  ASSERT_EQ(out[0].type(), ofp::MsgType::FlowMod);
  ASSERT_EQ(out[1].type(), ofp::MsgType::PacketOut);

  const auto& mod = out[0].as<ofp::FlowMod>();
  // The decisive Table II difference: Ryu's match wildcards the IP fields.
  EXPECT_GE(mod.match.nw_src_wild_bits(), 32u);
  EXPECT_GE(mod.match.nw_dst_wild_bits(), 32u);
  EXPECT_EQ(mod.match.nw_src.value, 0u);
  EXPECT_FALSE(mod.match.is_exact());
  EXPECT_EQ(mod.buffer_id, ofp::kNoBuffer);  // flow-mod does NOT carry the buffer
  EXPECT_EQ(mod.idle_timeout, 0);            // permanent entries
  EXPECT_EQ(mod.flags & ofp::kFlowModSendFlowRem, ofp::kFlowModSendFlowRem);

  const auto& po = out[1].as<ofp::PacketOut>();
  EXPECT_EQ(po.buffer_id, 61u);  // the packet rides the PACKET_OUT instead
}

TEST(Ryu, UnknownDestinationFloodsWithoutFlowMod) {
  sim::Scheduler sched;
  RyuSimpleSwitch ryu(sched, 0);
  FakeSwitch sw;
  sw.attach(ryu, 1);
  sw.packet_in(ryu, icmp(0xa, 0xb), 1, 62);
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::PacketOut);
}

TEST(Ryu, UnbufferedPacketOutCarriesData) {
  sim::Scheduler sched;
  RyuSimpleSwitch ryu(sched, 0);
  FakeSwitch sw;
  sw.attach(ryu, 1);
  sw.packet_in(ryu, icmp(0xa, 0xb), 1, ofp::kNoBuffer);
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FALSE(out[0].as<ofp::PacketOut>().data.empty());
}

// ---------------------------------------------------------------------------
// Floodlight Forwarding
// ---------------------------------------------------------------------------

struct FloodlightHarness {
  sim::Scheduler sched;
  topo::SystemModel model = scenario::make_enterprise_model();
  FloodlightForwarding fl{sched, 0};
  std::map<std::string, FakeSwitch> switches;

  FloodlightHarness() {
    for (const auto& spec : model.switches()) {
      switches[spec.name].attach(fl, spec.dpid);
    }
    run_discovery();
    for (auto& [name, sw] : switches) sw.take();
  }

  /// Feeds the controller the LLDP PACKET_INs its probes would produce on
  /// the real topology: for every inter-switch link, the probe sent from
  /// one end arrives at the other.
  void run_discovery() {
    for (const topo::LinkSpec& link : model.links()) {
      if (link.a.kind != EntityKind::Switch || link.b.kind != EntityKind::Switch) continue;
      deliver_lldp(link.a, *link.a_port, link.b, *link.b_port);
      deliver_lldp(link.b, *link.b_port, link.a, *link.a_port);
    }
  }

  void deliver_lldp(EntityId from_sw, std::uint16_t from_port, EntityId to_sw,
                    std::uint16_t to_port) {
    const std::uint64_t from_dpid = model.switch_at(from_sw).dpid;
    const pkt::Packet probe =
        pkt::make_lldp(pkt::MacAddress::from_u64((from_dpid << 8) | from_port), from_dpid,
                       from_port);
    switches[model.name_of(to_sw)].packet_in(fl, probe, to_port, ofp::kNoBuffer);
  }

  pkt::Packet host_packet(const char* src, const char* dst) {
    const auto& s = model.host(model.require(src));
    const auto& d = model.host(model.require(dst));
    return pkt::make_icmp_echo(s.mac, d.mac, s.ip, d.ip, pkt::IcmpType::EchoRequest, 1, 1, 0);
  }
};

TEST(Floodlight, LldpProbesSentOnEveryPort) {
  sim::Scheduler sched;
  FloodlightForwarding fl(sched, 0);
  FakeSwitch sw;
  sw.attach(fl, 7);  // handshake advertises 4 ports; probes follow at once
  unsigned lldp_outs = 0;
  // attach() clears received, but probes were sent during the handshake;
  // re-handshake to capture them.
  fl.on_envelope(sw.conn, chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
  ofp::FeaturesReply features;
  features.datapath_id = 7;
  for (std::uint16_t p = 1; p <= 4; ++p) {
    ofp::PhyPort port;
    port.port_no = p;
    features.ports.push_back(port);
  }
  fl.on_envelope(sw.conn, chan::Envelope(ofp::encode(ofp::make_message(2, std::move(features)))));
  for (const ofp::Message& m : sw.take()) {
    if (m.type() != ofp::MsgType::PacketOut) continue;
    const auto& out = m.as<ofp::PacketOut>();
    if (out.data.empty()) continue;
    std::uint64_t dpid = 0;
    std::uint16_t port = 0;
    if (pkt::parse_lldp(pkt::decode(out.data), dpid, port)) {
      EXPECT_EQ(dpid, 7u);
      ++lldp_outs;
    }
  }
  EXPECT_EQ(lldp_outs, 4u);
  EXPECT_GE(fl.lldp_probes_sent(), 4u);
}

TEST(Floodlight, DiscoveryBuildsLinkMap) {
  FloodlightHarness h;
  // The enterprise topology has 3 inter-switch links = 6 directed entries.
  EXPECT_EQ(h.fl.links().size(), 6u);
  const FloodlightForwarding::PortRef s1_to_s2{1, 3};
  ASSERT_TRUE(h.fl.links().contains(s1_to_s2));
  EXPECT_EQ(h.fl.links().at(s1_to_s2), (FloodlightForwarding::PortRef{2, 1}));
}

TEST(Floodlight, InternalPortsDoNotLearnDevices) {
  FloodlightHarness h;
  // A host frame arriving on a discovered inter-switch port must not move
  // the device's attachment point.
  h.switches["s4"].packet_in(h.fl, h.host_packet("h6", "h1"), 3, 70);  // true edge
  for (auto& [name, sw] : h.switches) sw.take();
  EXPECT_EQ(h.fl.device_count(), 1u);
  // A never-seen host's frame arriving on an internal port: no learning.
  h.switches["s2"].packet_in(h.fl, h.host_packet("h3", "h1"), 2, 71);
  EXPECT_EQ(h.fl.device_count(), 1u);
}

TEST(Floodlight, UnknownDestinationFloods) {
  FloodlightHarness h;
  h.fl.counters();
  h.switches["s1"].packet_in(h.fl, h.host_packet("h1", "h6"), 1, 70);
  const auto out = h.switches["s1"].take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::PacketOut);
}

TEST(Floodlight, KnownDestinationPushesWholeRoute) {
  FloodlightHarness h;
  // Teach the device manager where h6 lives (h6's frame seen at s4 port 3).
  h.switches["s4"].packet_in(h.fl, h.host_packet("h6", "h1"), 3, 71);
  for (auto& [name, sw] : h.switches) sw.take();

  // Now h1 -> h6 from s1: Floodlight should push flow-mods to s1..s4 and a
  // packet-out at s1.
  h.switches["s1"].packet_in(h.fl, h.host_packet("h1", "h6"), 1, 72);

  const auto s1_out = h.switches["s1"].take();
  ASSERT_EQ(s1_out.size(), 2u);  // FLOW_MOD + PACKET_OUT
  EXPECT_EQ(s1_out[0].type(), ofp::MsgType::FlowMod);
  EXPECT_EQ(s1_out[1].type(), ofp::MsgType::PacketOut);
  const auto& mod = s1_out[0].as<ofp::FlowMod>();
  EXPECT_EQ(mod.buffer_id, ofp::kNoBuffer);  // route mods never carry the buffer
  EXPECT_EQ(mod.idle_timeout, FloodlightForwarding::kIdleTimeout);
  // Full-tuple match: IP fields concrete (φ2-visible).
  EXPECT_EQ(mod.match.nw_src_wild_bits(), 0u);
  EXPECT_EQ(mod.match.nw_src, h.model.host(h.model.require("h1")).ip);

  const auto& po = s1_out[1].as<ofp::PacketOut>();
  EXPECT_EQ(po.buffer_id, 72u);
  EXPECT_EQ(std::get<ofp::ActionOutput>(po.actions.at(0)).port, 3);  // toward s2

  for (const char* name : {"s2", "s3", "s4"}) {
    const auto out = h.switches[name].take();
    ASSERT_EQ(out.size(), 1u) << name;
    EXPECT_EQ(out[0].type(), ofp::MsgType::FlowMod) << name;
  }
}

TEST(Floodlight, MidRoutePacketInReleasedAtThatSwitch) {
  FloodlightHarness h;
  h.switches["s4"].packet_in(h.fl, h.host_packet("h6", "h1"), 3, 73);
  for (auto& [name, sw] : h.switches) sw.take();

  // Miss happening at s3 (e.g. the s3 flow-mod was suppressed earlier).
  h.switches["s3"].packet_in(h.fl, h.host_packet("h1", "h6"), 1, 74);
  const auto out = h.switches["s3"].take();
  // s3's hop: out port 4 toward s4.
  const auto po = std::find_if(out.begin(), out.end(), [](const ofp::Message& m) {
    return m.type() == ofp::MsgType::PacketOut;
  });
  ASSERT_NE(po, out.end());
  EXPECT_EQ(std::get<ofp::ActionOutput>(po->as<ofp::PacketOut>().actions.at(0)).port, 4);
}

// Routes are memoized per (source, destination) attachment point; a
// link-down PORT_STATUS must invalidate them. Triangle s1-s2-s3 with host
// A on s1:1 and host B on s3:3: A -> B goes s1 -> s3 directly until s1:3
// fails, then around through s2, and floods once s1:2 fails as well.
TEST(Floodlight, PortDownReroutesInsteadOfReusingMemoizedRoute) {
  sim::Scheduler sched;
  FloodlightForwarding fl(sched, 0);
  FakeSwitch s1;
  FakeSwitch s2;
  FakeSwitch s3;
  s1.attach(fl, 1);
  s2.attach(fl, 2);
  s3.attach(fl, 3);
  auto lldp = [&](std::uint64_t from_dpid, std::uint16_t from_port, FakeSwitch& to,
                  std::uint16_t to_port) {
    to.packet_in(fl,
                 pkt::make_lldp(pkt::MacAddress::from_u64((from_dpid << 8) | from_port),
                                from_dpid, from_port),
                 to_port, ofp::kNoBuffer);
  };
  lldp(1, 2, s2, 1);
  lldp(2, 1, s1, 2);
  lldp(1, 3, s3, 1);
  lldp(3, 1, s1, 3);
  lldp(2, 2, s3, 2);
  lldp(3, 2, s2, 2);
  ASSERT_EQ(fl.links().size(), 6u);

  s3.packet_in(fl, icmp(0xb, 0xa), 3, 70);  // B's attachment point
  for (FakeSwitch* sw : {&s1, &s2, &s3}) sw->take();

  auto out_port = [](const ofp::Message& m) -> std::uint16_t {
    const ofp::ActionList& actions = m.type() == ofp::MsgType::FlowMod
                                         ? m.as<ofp::FlowMod>().actions
                                         : m.as<ofp::PacketOut>().actions;
    return std::get<ofp::ActionOutput>(actions.at(0)).port;
  };

  // Direct route: s1 out 3, s3 in 1 out 3.
  s1.packet_in(fl, icmp(0xa, 0xb), 1, 71);
  std::vector<ofp::Message> at_s1 = s1.take();
  ASSERT_EQ(at_s1.size(), 2u);
  EXPECT_EQ(at_s1[0].type(), ofp::MsgType::FlowMod);
  EXPECT_EQ(out_port(at_s1[0]), 3);
  EXPECT_EQ(out_port(at_s1[1]), 3);
  EXPECT_TRUE(s2.take().empty());
  std::vector<ofp::Message> at_s3 = s3.take();
  ASSERT_EQ(at_s3.size(), 1u);
  EXPECT_EQ(at_s3[0].as<ofp::FlowMod>().match.in_port, 1);

  ofp::PortStatus down;
  down.reason = ofp::PortReason::Modify;
  down.desc.state = 1;
  down.desc.port_no = 3;
  fl.on_envelope(s1.conn, chan::Envelope(ofp::encode(ofp::make_message(9, down))));

  // Surviving path: s1 out 2, s2 in 1 out 2, s3 in 2 out 3.
  s1.packet_in(fl, icmp(0xa, 0xb), 1, 72);
  at_s1 = s1.take();
  ASSERT_EQ(at_s1.size(), 2u);
  EXPECT_EQ(at_s1[0].type(), ofp::MsgType::FlowMod);
  EXPECT_EQ(out_port(at_s1[0]), 2);
  EXPECT_EQ(out_port(at_s1[1]), 2);
  const std::vector<ofp::Message> at_s2 = s2.take();
  ASSERT_EQ(at_s2.size(), 1u);
  EXPECT_EQ(at_s2[0].as<ofp::FlowMod>().match.in_port, 1);
  EXPECT_EQ(out_port(at_s2[0]), 2);
  at_s3 = s3.take();
  ASSERT_EQ(at_s3.size(), 1u);
  EXPECT_EQ(at_s3[0].as<ofp::FlowMod>().match.in_port, 2);
  EXPECT_EQ(out_port(at_s3[0]), 3);

  // No path left: flood at the PACKET_IN switch, install nothing.
  down.desc.port_no = 2;
  fl.on_envelope(s1.conn, chan::Envelope(ofp::encode(ofp::make_message(10, down))));
  s1.packet_in(fl, icmp(0xa, 0xb), 1, 73);
  at_s1 = s1.take();
  ASSERT_EQ(at_s1.size(), 1u);
  ASSERT_EQ(at_s1[0].type(), ofp::MsgType::PacketOut);
  EXPECT_EQ(out_port(at_s1[0]), static_cast<std::uint16_t>(ofp::Port::Flood));
  EXPECT_TRUE(s2.take().empty());
  EXPECT_TRUE(s3.take().empty());
}

TEST(Floodlight, EchoRequestAnswered) {
  FloodlightHarness h;
  auto& sw = h.switches["s1"];
  h.fl.on_envelope(sw.conn,
                   chan::Envelope(ofp::encode(ofp::make_message(88, ofp::EchoRequest{{5}}))));
  const auto out = sw.take();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::EchoReply);
}

TEST(Controller, ProcessingDelaySerializesWork) {
  // Two packet-ins arriving together are processed 1 ms apart: the
  // single-threaded controller model behind the Fig. 11 degradation.
  sim::Scheduler sched;
  PoxL2Learning pox(sched, kMillisecond);
  std::vector<SimTime> reply_times;
  const ConnHandle conn = pox.add_connection([&](chan::Envelope) { reply_times.push_back(sched.now()); });
  pox.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
  sched.run();
  // HELLO processing produced two sends (HELLO + FEATURES_REQUEST) at 1 ms.
  ASSERT_GE(reply_times.size(), 2u);
  EXPECT_EQ(reply_times[0], kMillisecond);

  reply_times.clear();
  pox.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(2, ofp::EchoRequest{}))));
  pox.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(3, ofp::EchoRequest{}))));
  sched.run();
  ASSERT_EQ(reply_times.size(), 2u);
  EXPECT_EQ(reply_times[1] - reply_times[0], kMillisecond);
}

/// Records when and from which connection each PACKET_IN is handled.
class RecordingController : public Controller {
 public:
  using Controller::Controller;

  struct Handled {
    SimTime at;
    ConnHandle conn;
    std::uint32_t buffer_id;
  };
  std::vector<Handled> handled;
  std::size_t max_queued{0};

 protected:
  void on_packet_in(ConnHandle conn, const ofp::PacketIn& pin) override {
    handled.push_back({sched().now(), conn, pin.buffer_id});
    max_queued = std::max(max_queued, sched().queued_entries());
  }
};

TEST(Controller, BurstWaitsInOneLaneEntry) {
  // 10 000 PACKET_INs arriving in one instant wait in the backlog lane:
  // the k-th is handled at (k + 1) x processing_delay, in arrival order,
  // while the scheduler holds at most two entries.
  sim::Scheduler sched;
  constexpr SimTime kDelay = 50 * kMicrosecond;
  RecordingController controller(sched, "recorder", kDelay);
  const ConnHandle a = controller.add_connection(nullptr);
  const ConnHandle b = controller.add_connection(nullptr);
  constexpr std::uint32_t kBurst = 10'000;
  for (std::uint32_t k = 0; k < kBurst; ++k) {
    ofp::PacketIn pin;
    pin.buffer_id = k;
    controller.on_envelope(k % 3 == 0 ? b : a,
                           chan::Envelope(ofp::make_message(k, std::move(pin))));
    ASSERT_LE(sched.queued_entries(), 2u);
  }
  EXPECT_EQ(sched.queued_entries(), 1u);
  sched.run();

  ASSERT_EQ(controller.handled.size(), kBurst);
  for (std::uint32_t k = 0; k < kBurst; ++k) {
    const RecordingController::Handled& h = controller.handled[k];
    ASSERT_EQ(h.at, static_cast<SimTime>(k + 1) * kDelay) << "message " << k;
    ASSERT_EQ(h.buffer_id, k) << "message " << k;
    ASSERT_EQ(h.conn, k % 3 == 0 ? b : a) << "message " << k;
  }
  EXPECT_LE(controller.max_queued, 2u);
  EXPECT_EQ(sched.events_executed(), kBurst);
  EXPECT_EQ(controller.counters().packet_ins, kBurst);
}

TEST(Controller, MalformedFrameCountedNotFatal) {
  sim::Scheduler sched;
  RyuSimpleSwitch ryu(sched, 0);
  FakeSwitch sw;
  sw.attach(ryu, 1);
  Bytes garbage{0xff, 0xff, 0xff};
  ryu.on_envelope(sw.conn, chan::Envelope(garbage));
  EXPECT_EQ(ryu.counters().decode_errors, 1u);
  // Still functional afterwards.
  sw.packet_in(ryu, icmp(0xa, 0xb), 1);
  EXPECT_FALSE(sw.take().empty());
}

}  // namespace
}  // namespace attain::ctl
