// The batched fast path's contract: pipe coalescing preserves delivery
// order, per-payload stats, and events_executed() accounting exactly, and
// the switch's batch ingress emits byte-identical control frames to the
// per-packet data-plane path (on_packet). Whole cells are pinned by the
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
// Switch batch ingress: byte-identical control output to per-packet ingress.
// ---------------------------------------------------------------------------

swsim::PacketBatch flood_batch(std::uint16_t port, int count) {
  swsim::PacketBatch batch;
  batch.port = port;
  for (int f = 0; f < count; ++f) {
    pkt::TcpHeader tcp;
    tcp.src_port = static_cast<std::uint16_t>(40000 + f);
    tcp.dst_port = 80;
    tcp.flags = pkt::kTcpSyn;
    pkt::Packet p = pkt::make_tcp(pkt::MacAddress::from_u64(0x0aad00000000ULL + f),
                                  pkt::MacAddress::from_u64(0x22),
                                  pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + f)},
                                  pkt::Ipv4Address{0x0a000202}, tcp, 0, 0);
    batch.packets.push_back(std::move(p));
  }
  return batch;
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
    sw->on_control_bytes(ofp::encode(ofp::make_message(1, ofp::Hello{})));
    sw->on_control_bytes(ofp::encode(ofp::make_message(2, ofp::FeaturesRequest{})));
    EXPECT_EQ(sw->channel_state(), swsim::ChannelState::Connected);
    control_wire.clear();
  }
};

TEST(SwitchBatching, BatchIngressMatchesScalarByteForByte) {
  WireHarness scalar;
  swsim::PacketBatch packets = flood_batch(3, 32);
  for (pkt::Packet& packet : packets.packets) scalar.sw->on_packet(3, std::move(packet));

  WireHarness batched;
  batched.sw->on_packet_batch(flood_batch(3, 32));

  ASSERT_EQ(scalar.control_wire.size(), batched.control_wire.size());
  for (std::size_t i = 0; i < scalar.control_wire.size(); ++i) {
    ASSERT_EQ(scalar.control_wire[i], batched.control_wire[i]) << "frame " << i;
    // Both paths stamp; the full codec is the reference for the bytes.
    ASSERT_EQ(ofp::encode(ofp::decode(scalar.control_wire[i])), scalar.control_wire[i])
        << "frame " << i;
  }
  EXPECT_EQ(scalar.sw->counters().packets_in, batched.sw->counters().packets_in);
  EXPECT_EQ(scalar.sw->counters().table_misses, batched.sw->counters().table_misses);
  EXPECT_EQ(scalar.sw->counters().packet_in_sent, batched.sw->counters().packet_in_sent);
  EXPECT_EQ(scalar.sw->counters().control_tx, batched.sw->counters().control_tx);
}

TEST(SwitchBatching, StampedPacketInCarriesBothEnvelopeViews) {
  WireHarness h;
  h.sw->on_packet_batch(flood_batch(2, 4));
  ASSERT_EQ(h.control_wire.size(), 4u);
  // Each stamped PACKET_IN must round-trip: decode(wire) == typed view.
  for (const Bytes& wire : h.control_wire) {
    const ofp::Message decoded = ofp::decode(wire);
    EXPECT_EQ(decoded.type(), ofp::MsgType::PacketIn);
    EXPECT_EQ(ofp::encode(decoded), wire);
  }
}

}  // namespace
}  // namespace attain
