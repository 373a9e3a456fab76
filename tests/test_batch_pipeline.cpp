// The batched fast path's contract: pipe coalescing preserves delivery
// order, per-payload stats, and events_executed() accounting exactly, and
// the typed PACKET_INs a flood raises at switch ingress (on_packet) read
// back as the wire frames they stand for. Whole cells are pinned by the
// golden corpus (test_golden.cpp).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ofp/codec.hpp"
#include "packet/codec.hpp"
#include "sim/link.hpp"
#include "swsim/switch.hpp"

namespace attain {
namespace {

// ---------------------------------------------------------------------------
// Pipe coalescing.
// ---------------------------------------------------------------------------

TEST(PipeBatching, SameInstantSendsCoalesceIntoOneBatch) {
  sim::Scheduler sched;
  sim::Pipe<int> pipe(sched, sim::PipeConfig{0, 10, 0});  // infinite bandwidth
  std::vector<std::vector<int>> batches;
  pipe.set_batch_receiver([&](sim::PayloadBatch<int> items) {
    std::vector<int> got;
    for (auto& item : items) got.push_back(item.payload);
    batches.push_back(std::move(got));
  });
  sched.at(5, [&] {
    pipe.send(1, 8);
    pipe.send(2, 8);
    pipe.send(3, 8);
  });
  sched.run();
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(pipe.stats().delivered, 3u);
  EXPECT_EQ(pipe.stats().bytes_delivered, 24u);
  // One scheduler event fired for the batch, plus the seed event; the extra
  // two items count as logical events so the total matches the scalar run.
  EXPECT_EQ(sched.events_executed(), 1u + 3u);
}

TEST(PipeBatching, InterveningScheduleSplitsTheBatch) {
  sim::Scheduler sched;
  sim::Pipe<int> pipe(sched, sim::PipeConfig{0, 10, 0});
  std::vector<std::size_t> batch_sizes;
  pipe.set_batch_receiver([&](sim::PayloadBatch<int> items) {
    batch_sizes.push_back(items.size());
  });
  sched.at(5, [&] {
    pipe.send(1, 8);
    // An unrelated event scheduled between two sends could, in the scalar
    // schedule, be ordered between their deliveries — the pipe must not
    // coalesce across it.
    sched.at(15, [] {});
    pipe.send(2, 8);
  });
  sched.run();
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1, 1}));
}

TEST(PipeBatching, SerializationDelayPreventsCoalescing) {
  sim::Scheduler sched;
  // 100 Mbps: a 54-byte frame occupies the pipe 4.32 us, so consecutive
  // sends have distinct delivery instants — the data-plane case.
  sim::Pipe<int> pipe(sched, sim::PipeConfig{100'000'000, 10, 0});
  std::vector<std::size_t> batch_sizes;
  pipe.set_batch_receiver([&](sim::PayloadBatch<int> items) {
    batch_sizes.push_back(items.size());
  });
  sched.at(5, [&] {
    pipe.send(1, 54);
    pipe.send(2, 54);
  });
  sched.run();
  EXPECT_EQ(batch_sizes, (std::vector<std::size_t>{1, 1}));
}

// ---------------------------------------------------------------------------
// Switch ingress: a flood's typed PACKET_INs carry their wire bytes.
// ---------------------------------------------------------------------------

pkt::Packet flood_packet(int f) {
  pkt::TcpHeader tcp;
  tcp.src_port = static_cast<std::uint16_t>(40000 + f);
  tcp.dst_port = 80;
  tcp.flags = pkt::kTcpSyn;
  return pkt::make_tcp(pkt::MacAddress::from_u64(0x0aad00000000ULL + f),
                       pkt::MacAddress::from_u64(0x22),
                       pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + f)},
                       pkt::Ipv4Address{0x0a000202}, tcp, 0, 0);
}

struct WireHarness {
  sim::Scheduler sched;
  std::unique_ptr<swsim::OpenFlowSwitch> sw;
  std::vector<Bytes> control_wire;

  WireHarness() {
    swsim::SwitchConfig config;
    config.name = "s1";
    config.dpid = 0x1;
    config.num_ports = 4;
    sw = std::make_unique<swsim::OpenFlowSwitch>(sched, config);
    sw->set_control_sender([this](chan::Envelope e) {
      // Compare what a wire reader would see: materialize the frame bytes
      // (the channel itself only sizes the frame).
      control_wire.push_back(e.wire());
    });
    sw->connect();
    sw->on_control_envelope(chan::Envelope(ofp::encode(ofp::make_message(1, ofp::Hello{}))));
    sw->on_control_envelope(
        chan::Envelope(ofp::encode(ofp::make_message(2, ofp::FeaturesRequest{}))));
    EXPECT_EQ(sw->channel_state(), swsim::ChannelState::Connected);
    control_wire.clear();
  }
};

TEST(SwitchIngress, StampedPacketInCarriesBothEnvelopeViews) {
  WireHarness h;
  for (int f = 0; f < 4; ++f) h.sw->on_packet(2, flood_packet(f));
  ASSERT_EQ(h.control_wire.size(), 4u);
  // Each typed PACKET_IN must round-trip: encode(decode(wire)) == wire.
  for (const Bytes& wire : h.control_wire) {
    const ofp::Message decoded = ofp::decode(wire);
    EXPECT_EQ(decoded.type(), ofp::MsgType::PacketIn);
    EXPECT_EQ(ofp::encode(decoded), wire);
  }
}

}  // namespace
}  // namespace attain
