// Testbed data-plane wiring: each switch's packet sender owns a table of
// its output pipes indexed by port number (scenario/experiment.cpp).
//
// AllocationsScaleLinearlyWithPorts pins the O(ports) build with the
// binary-wide counting hook (common/alloc_hook.cpp): quadrupling the
// leaves of a leaf-spine fabric must multiply one Testbed's global
// allocations by far less than the 16x a per-switch copy of a
// fabric-wide port map costs. UnwiredPortsDeliverNothing pins the
// drop-silently contract for ports without a link and for port 0.
#include <gtest/gtest.h>

#include "common/alloc_hook.hpp"
#include "ofp/codec.hpp"
#include "packet/codec.hpp"
#include "scenario/experiment.hpp"
#include "topo/generators.hpp"

namespace attain::scenario {
namespace {

/// Global allocations made while constructing one Testbed on `spec`. The
/// model is built outside the window, so only the testbed's own wiring
/// (hosts, switches, pipes, channels, senders) is counted.
std::uint64_t testbed_allocations(const topo::TopologySpec& spec) {
  topo::SystemModel model = topo::build_model(spec);
  const memhook::Window window = memhook::Window::open();
  const Testbed bed(std::move(model));
  return window.allocations();
}

TEST(TestbedBuild, AllocationsScaleLinearlyWithPorts) {
  ASSERT_TRUE(memhook::installed());
  const std::uint64_t small = testbed_allocations(topo::TopologySpec::leaf_spine(1, 16, 32));
  const std::uint64_t large = testbed_allocations(topo::TopologySpec::leaf_spine(1, 64, 32));
  ASSERT_GT(small, 0u);
  RecordProperty("allocations_leaf_spine_1x16x32", static_cast<int>(small));
  RecordProperty("allocations_leaf_spine_1x64x32", static_cast<int>(large));
  // 4x the switches and 4x the ports: O(ports) wiring is ~4x, while the
  // O(switches x ports) map copy it replaced measured 14.1x here.
  const double ratio = static_cast<double>(large) / static_cast<double>(small);
  EXPECT_LE(ratio, 6.0) << "leaf_spine(1,16,32): " << small
                        << " allocations, leaf_spine(1,64,32): " << large;
}

TEST(TestbedBuild, UnwiredPortsDeliverNothing) {
  // One fail-safe switch with four ports; only ports 1 and 2 have links.
  topo::SystemModel model;
  const EntityId c1 = model.add_controller({"c1", pkt::Ipv4Address{0x0a006401}, 6633});
  const EntityId s1 = model.add_switch({"s1", 1, 4, false});
  const EntityId h1 = model.add_host(
      {"h1", pkt::MacAddress::from_u64(1), pkt::Ipv4Address{0x0a000001}});
  const EntityId h2 = model.add_host(
      {"h2", pkt::MacAddress::from_u64(2), pkt::Ipv4Address{0x0a000002}});
  model.add_link(h1, std::nullopt, s1, 1);
  model.add_link(h2, std::nullopt, s1, 2);
  model.add_control_connection(c1, s1);
  model.validate();
  Testbed bed(std::move(model));

  // A TCP segment to a port h2 does not listen on: counted on receipt,
  // never answered, so the only traffic is what the PACKET_OUT emits.
  pkt::TcpHeader tcp;
  tcp.src_port = 1000;
  tcp.dst_port = 2000;
  ofp::PacketOut out;
  out.buffer_id = ofp::kNoBuffer;
  out.in_port = 1;
  out.data = pkt::encode(pkt::make_tcp(bed.host("h1").mac(), bed.host("h2").mac(),
                                       bed.host("h1").ip(), bed.host("h2").ip(), tcp, 0, 0));
  // Unwired ports 3 and 4, port 0, a flood (ports 2, 3, 4), then port 2.
  for (const std::uint16_t port :
       {std::uint16_t{3}, std::uint16_t{4}, std::uint16_t{0},
        static_cast<std::uint16_t>(ofp::Port::Flood), std::uint16_t{2}}) {
    out.actions.push_back(ofp::ActionOutput{port});
  }
  bed.switch_named("s1").on_control_envelope(
      chan::Envelope(ofp::encode(ofp::make_message(1, std::move(out)))));
  bed.run_until(kSecond);

  // Port 0 never reaches the sender; the four unwired-port copies do and
  // are dropped there. Only the two copies on port 2 arrive.
  EXPECT_EQ(bed.switch_named("s1").counters().packets_forwarded, 6u);
  EXPECT_EQ(bed.host("h2").counters().packets_received, 2u);
  EXPECT_EQ(bed.host("h1").counters().packets_received, 0u);
}

}  // namespace
}  // namespace attain::scenario
