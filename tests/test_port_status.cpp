// Port up/down handling: the switch suppresses egress on down ports and
// emits PORT_STATUS; Floodlight purges topology state for down ports. The
// PORT_STATUS suppression attack leaves the controller with stale state —
// the "lack of diagnostics" attack vector of §II-A4.
#include <gtest/gtest.h>

#include "attain/dsl/templates.hpp"
#include "ctl/floodlight.hpp"
#include "ofp/codec.hpp"
#include "packet/codec.hpp"
#include "scenario/experiment.hpp"
#include "swsim/switch.hpp"

namespace attain {
namespace {

TEST(SwitchPortStatus, DownPortSuppressesEgressAndNotifies) {
  sim::Scheduler sched;
  swsim::SwitchConfig config;
  config.name = "s1";
  config.dpid = 1;
  config.num_ports = 4;
  swsim::OpenFlowSwitch sw(sched, config);
  std::vector<ofp::Message> control;
  std::vector<std::pair<std::uint16_t, pkt::Packet>> data;
  sw.set_control_sender([&](chan::Envelope e) {
      ASSERT_NE(e.message(), nullptr);
      control.push_back(*e.message());
    });
  sw.set_packet_sender([&](std::uint16_t port, pkt::Packet p) { data.emplace_back(port, p); });
  sw.connect();
  sw.on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
  sw.on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(2, ofp::FeaturesRequest{}))));
  control.clear();

  EXPECT_TRUE(sw.port_up(3));
  sw.set_port_up(3, false);
  EXPECT_FALSE(sw.port_up(3));
  ASSERT_EQ(control.size(), 1u);
  ASSERT_EQ(control[0].type(), ofp::MsgType::PortStatus);
  const auto& status = control[0].as<ofp::PortStatus>();
  EXPECT_EQ(status.desc.port_no, 3);
  EXPECT_EQ(status.desc.state & 0x1, 1u);

  // Idempotent: lowering again is silent.
  sw.set_port_up(3, false);
  EXPECT_EQ(control.size(), 1u);

  // Egress to the down port vanishes; other ports still work. Floods skip it.
  ofp::PacketOut out;
  out.buffer_id = ofp::kNoBuffer;
  out.in_port = 1;
  out.actions = ofp::output_to(std::uint16_t{3});
  out.data = pkt::encode(pkt::make_arp_request(pkt::MacAddress::from_u64(1),
                                               pkt::Ipv4Address{1}, pkt::Ipv4Address{2}));
  sw.on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(3, out))));
  EXPECT_TRUE(data.empty());
  ofp::PacketOut flood;
  flood.buffer_id = ofp::kNoBuffer;
  flood.in_port = 1;
  flood.actions = ofp::output_to(ofp::Port::Flood);
  flood.data = out.data;
  sw.on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(4, flood))));
  EXPECT_EQ(data.size(), 2u);  // ports 2 and 4 only

  // Raising the port notifies and restores egress.
  control.clear();
  data.clear();
  sw.set_port_up(3, true);
  ASSERT_EQ(control.size(), 1u);
  EXPECT_EQ(control[0].as<ofp::PortStatus>().desc.state & 0x1, 0u);
  sw.on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(5, out))));
  EXPECT_EQ(data.size(), 1u);
}

TEST(FloodlightPortStatus, DownPortPurgesLinksAndDevices) {
  sim::Scheduler sched;
  ctl::FloodlightForwarding fl(sched, 0);
  std::vector<ofp::Message> received;
  const ctl::ConnHandle conn =
      fl.add_connection([&](chan::Envelope e) {
      ASSERT_NE(e.message(), nullptr);
      received.push_back(*e.message());
    });
  fl.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
  ofp::FeaturesReply features;
  features.datapath_id = 1;
  fl.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(2, std::move(features)))));

  // Teach it one link (1:3 -> 1:4 loopback-ish is fine for the purge test)
  // and one device on port 2.
  ofp::PacketIn lldp;
  lldp.in_port = 4;
  lldp.data = pkt::encode(pkt::make_lldp(pkt::MacAddress::from_u64(9), 1, 3));
  lldp.total_len = static_cast<std::uint16_t>(lldp.data.size());
  fl.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(3, std::move(lldp)))));
  ofp::PacketIn host;
  host.in_port = 2;
  host.data = pkt::encode(pkt::make_arp_request(pkt::MacAddress::from_u64(0xaa),
                                                pkt::Ipv4Address{1}, pkt::Ipv4Address{2}));
  host.total_len = static_cast<std::uint16_t>(host.data.size());
  fl.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(4, std::move(host)))));
  ASSERT_EQ(fl.links().size(), 1u);
  ASSERT_EQ(fl.device_count(), 1u);

  // Port 2 down: the device goes; the link (on ports 3/4) stays.
  ofp::PortStatus down;
  down.reason = ofp::PortReason::Modify;
  down.desc.port_no = 2;
  down.desc.state = 1;
  fl.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(5, down))));
  EXPECT_EQ(fl.device_count(), 0u);
  EXPECT_EQ(fl.links().size(), 1u);

  // Port 4 down: the link goes too (it terminates there).
  down.desc.port_no = 4;
  fl.on_envelope(conn, chan::Envelope(ofp::encode(ofp::make_message(6, down))));
  EXPECT_EQ(fl.links().size(), 0u);
}

TEST(PortStatusIntegration, LinkDownUnreachableUntilRecovery) {
  scenario::TestbedOptions options;
  options.controller = scenario::ControllerKind::Floodlight;
  scenario::Testbed bed(scenario::make_enterprise_model(), options);
  bed.connect_switches_at(seconds(1));

  auto ping1 = std::make_unique<dpl::PingApp>(bed.host("h1"), bed.host("h6").ip(), 41);
  bed.scheduler().at(seconds(3), [&] { ping1->start(5); });
  bed.run_until(seconds(9));
  ASSERT_GE(ping1->report().received(), 4u);

  // h6's access port goes down; pings die.
  bed.scheduler().at(seconds(10), [&] { bed.switch_named("s4").set_port_up(3, false); });
  auto ping2 = std::make_unique<dpl::PingApp>(bed.host("h1"), bed.host("h6").ip(), 42);
  bed.scheduler().at(seconds(12), [&] { ping2->start(5); });
  bed.run_until(seconds(18));
  EXPECT_EQ(ping2->report().received(), 0u);

  // Port restored: connectivity returns (device re-learned from traffic).
  bed.scheduler().at(seconds(19), [&] { bed.switch_named("s4").set_port_up(3, true); });
  auto ping3 = std::make_unique<dpl::PingApp>(bed.host("h1"), bed.host("h6").ip(), 43);
  bed.scheduler().at(seconds(21), [&] { ping3->start(6); });
  bed.run_until(seconds(30));
  EXPECT_GE(ping3->report().received(), 4u);
}

TEST(PortStatusIntegration, SuppressionLeavesControllerWithStaleState) {
  // The diagnostics-suppression attack: drop every PORT_STATUS on
  // (c1, s4). The controller keeps routing to the dead port and never
  // purges the device — stale state the paper's §II-A4 "lack of
  // diagnostics" vector describes.
  scenario::TestbedOptions options;
  options.controller = scenario::ControllerKind::Floodlight;
  scenario::Testbed bed(scenario::make_enterprise_model(), options);
  bed.arm_attack_at(seconds(0.5),
                    dsl::templates::suppress_type({{"c1", "s4"}}, "PORT_STATUS"));
  bed.connect_switches_at(seconds(1));

  auto warm = std::make_unique<dpl::PingApp>(bed.host("h1"), bed.host("h6").ip(), 51);
  bed.scheduler().at(seconds(3), [&] { warm->start(3); });
  bed.run_until(seconds(8));
  const auto& fl = dynamic_cast<const ctl::FloodlightForwarding&>(bed.controller());
  ASSERT_GE(fl.device_count(), 2u);  // h1 and h6 attached
  const std::size_t devices_before = fl.device_count();

  bed.scheduler().at(seconds(9), [&] { bed.switch_named("s4").set_port_up(3, false); });
  bed.run_until(seconds(14));
  // Without suppression the controller would have purged h6's attachment;
  // with it, the stale device remains and the notification was dropped.
  EXPECT_EQ(fl.device_count(), devices_before);
  EXPECT_GE(bed.monitor().count(monitor::EventKind::MessageDropped), 1u);
}

}  // namespace
}  // namespace attain
