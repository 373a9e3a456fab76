#include "swsim/switch.hpp"

#include <gtest/gtest.h>

#include "packet/codec.hpp"

namespace attain::swsim {
namespace {

/// Captures everything a switch sends on its control channel and data
/// ports, and lets tests speak OpenFlow to it directly.
struct Harness {
  sim::Scheduler sched;
  SwitchConfig config;
  std::unique_ptr<OpenFlowSwitch> sw;
  std::vector<ofp::Message> control_out;
  std::vector<std::pair<std::uint16_t, pkt::Packet>> data_out;

  explicit Harness(bool fail_secure = false) {
    config.name = "s1";
    config.dpid = 0x1;
    config.num_ports = 4;
    config.fail_secure = fail_secure;
    sw = std::make_unique<OpenFlowSwitch>(sched, config);
    sw->set_control_sender([this](chan::Envelope e) {
      ASSERT_NE(e.message(), nullptr);
      control_out.push_back(*e.message());
    });
    sw->set_packet_sender(
        [this](std::uint16_t port, pkt::Packet p) { data_out.emplace_back(port, std::move(p)); });
  }

  void send(const ofp::Message& msg) { sw->on_control_envelope(chan::Envelope(ofp::encode(msg))); }

  /// Performs the controller's side of the handshake.
  void handshake() {
    sw->connect();
    send(ofp::make_message(1, ofp::Hello{}));
    send(ofp::make_message(2, ofp::FeaturesRequest{}));
    ASSERT_EQ(sw->channel_state(), ChannelState::Connected);
    control_out.clear();
  }

  std::vector<ofp::Message> take_control() {
    std::vector<ofp::Message> out = std::move(control_out);
    control_out.clear();
    return out;
  }
};

pkt::Packet sample_packet(std::uint64_t src = 1, std::uint64_t dst = 2) {
  return pkt::make_icmp_echo(pkt::MacAddress::from_u64(src), pkt::MacAddress::from_u64(dst),
                             pkt::Ipv4Address{static_cast<std::uint32_t>(src)},
                             pkt::Ipv4Address{static_cast<std::uint32_t>(dst)},
                             pkt::IcmpType::EchoRequest, 1, 1, 0);
}

TEST(Switch, HandshakeSendsHelloAndFeatures) {
  Harness h;
  h.sw->connect();
  ASSERT_FALSE(h.control_out.empty());
  EXPECT_EQ(h.control_out[0].type(), ofp::MsgType::Hello);
  EXPECT_EQ(h.sw->channel_state(), ChannelState::HandshakePending);

  h.send(ofp::make_message(1, ofp::Hello{}));
  h.send(ofp::make_message(2, ofp::FeaturesRequest{}));
  const auto out = h.take_control();
  const auto features = std::find_if(out.begin(), out.end(), [](const ofp::Message& m) {
    return m.type() == ofp::MsgType::FeaturesReply;
  });
  ASSERT_NE(features, out.end());
  EXPECT_EQ(features->as<ofp::FeaturesReply>().datapath_id, 0x1u);
  EXPECT_EQ(features->as<ofp::FeaturesReply>().ports.size(), 4u);
  EXPECT_EQ(features->xid, 2u);  // reply carries the request's xid
  EXPECT_EQ(h.sw->channel_state(), ChannelState::Connected);
}

TEST(Switch, TableMissSendsBufferedPacketIn) {
  Harness h;
  h.handshake();
  const pkt::Packet p = sample_packet();
  h.sw->on_packet(2, p);
  const auto out = h.take_control();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type(), ofp::MsgType::PacketIn);
  const auto& pin = out[0].as<ofp::PacketIn>();
  EXPECT_EQ(pin.in_port, 2);
  EXPECT_NE(pin.buffer_id, ofp::kNoBuffer);
  EXPECT_EQ(pin.total_len, p.wire_size());
  EXPECT_LE(pin.data.size(), h.config.miss_send_len);
  EXPECT_EQ(h.sw->counters().table_misses, 1u);
}

TEST(Switch, PacketOutReleasesBuffer) {
  Harness h;
  h.handshake();
  h.sw->on_packet(2, sample_packet());
  const auto pin = h.take_control().at(0).as<ofp::PacketIn>();

  ofp::PacketOut out;
  out.buffer_id = pin.buffer_id;
  out.actions = ofp::output_to(std::uint16_t{3});
  h.send(ofp::make_message(10, std::move(out)));
  ASSERT_EQ(h.data_out.size(), 1u);
  EXPECT_EQ(h.data_out[0].first, 3);
  // Releasing the same buffer twice is a no-op (stale reference).
  ofp::PacketOut again;
  again.buffer_id = pin.buffer_id;
  again.actions = ofp::output_to(std::uint16_t{3});
  h.send(ofp::make_message(11, std::move(again)));
  EXPECT_EQ(h.data_out.size(), 1u);
}

TEST(Switch, PacketOutWithRawDataAndFlood) {
  Harness h;
  h.handshake();
  ofp::PacketOut out;
  out.buffer_id = ofp::kNoBuffer;
  out.in_port = 1;
  out.actions = ofp::output_to(ofp::Port::Flood);
  out.data = pkt::encode(sample_packet());
  h.send(ofp::make_message(10, std::move(out)));
  // Flood = all ports except in_port.
  ASSERT_EQ(h.data_out.size(), 3u);
  EXPECT_EQ(h.data_out[0].first, 2);
  EXPECT_EQ(h.data_out[2].first, 4);
}

TEST(Switch, FlowModInstallsAndForwards) {
  Harness h;
  h.handshake();
  const pkt::Packet p = sample_packet();
  ofp::FlowMod mod;
  mod.match = ofp::Match::from_packet(p, 2);
  mod.command = ofp::FlowModCommand::Add;
  mod.actions = ofp::output_to(std::uint16_t{4});
  h.send(ofp::make_message(10, std::move(mod)));
  EXPECT_EQ(h.sw->flow_table().size(), 1u);

  h.sw->on_packet(2, p);
  ASSERT_EQ(h.data_out.size(), 1u);
  EXPECT_EQ(h.data_out[0].first, 4);
  EXPECT_TRUE(h.take_control().empty());  // no PACKET_IN on a hit
}

TEST(Switch, FlowModWithBufferReleasesPacket) {
  // The POX idiom: the FLOW_MOD both installs the entry and forwards the
  // buffered packet.
  Harness h;
  h.handshake();
  const pkt::Packet p = sample_packet();
  h.sw->on_packet(2, p);
  const auto pin = h.take_control().at(0).as<ofp::PacketIn>();

  ofp::FlowMod mod;
  mod.match = ofp::Match::from_packet(p, 2);
  mod.command = ofp::FlowModCommand::Add;
  mod.buffer_id = pin.buffer_id;
  mod.actions = ofp::output_to(std::uint16_t{4});
  h.send(ofp::make_message(10, std::move(mod)));
  ASSERT_EQ(h.data_out.size(), 1u);
  EXPECT_EQ(h.data_out[0].first, 4);
  EXPECT_EQ(h.sw->flow_table().size(), 1u);
}

TEST(Switch, EchoRequestAnswered) {
  Harness h;
  h.handshake();
  h.send(ofp::make_message(77, ofp::EchoRequest{{1, 2}}));
  const auto out = h.take_control();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::EchoReply);
  EXPECT_EQ(out[0].xid, 77u);
  EXPECT_EQ(out[0].as<ofp::EchoReply>().data, (Bytes{1, 2}));
}

TEST(Switch, EchoTimeoutTriggersFailSafeStandalone) {
  Harness h(/*fail_secure=*/false);
  h.handshake();
  // Never answer the switch's echo requests; after echo_miss_limit
  // intervals the channel is declared dead.
  h.sched.run_until(30 * kSecond);
  EXPECT_EQ(h.sw->channel_state(), ChannelState::Disconnected);
  EXPECT_TRUE(h.sw->in_standalone_mode());

  // Standalone learning: first packet floods, learned reverse path is unicast.
  h.data_out.clear();
  h.sw->on_packet(1, sample_packet(0xa, 0xb));
  EXPECT_EQ(h.data_out.size(), 3u);  // flood
  h.data_out.clear();
  h.sw->on_packet(2, sample_packet(0xb, 0xa));
  ASSERT_EQ(h.data_out.size(), 1u);  // learned
  EXPECT_EQ(h.data_out[0].first, 1);
  EXPECT_GT(h.sw->counters().standalone_forwards, 0u);
}

TEST(Switch, EchoTimeoutTriggersFailSecureDrops) {
  Harness h(/*fail_secure=*/true);
  h.handshake();
  h.sched.run_until(30 * kSecond);
  EXPECT_EQ(h.sw->channel_state(), ChannelState::Disconnected);
  EXPECT_FALSE(h.sw->in_standalone_mode());

  h.data_out.clear();
  h.sw->on_packet(1, sample_packet());
  EXPECT_TRUE(h.data_out.empty());
  EXPECT_GT(h.sw->counters().miss_drops, 0u);
}

TEST(Switch, FailSecureKeepsExistingFlowsUntilTimeout) {
  Harness h(/*fail_secure=*/true);
  h.handshake();
  const pkt::Packet p = sample_packet();
  ofp::FlowMod mod;
  mod.match = ofp::Match::from_packet(p, 2);
  mod.command = ofp::FlowModCommand::Add;
  mod.idle_timeout = 10;
  mod.actions = ofp::output_to(std::uint16_t{4});
  h.send(ofp::make_message(10, std::move(mod)));

  h.sched.run_until(30 * kSecond);  // connection dies, entry idles out
  EXPECT_EQ(h.sw->channel_state(), ChannelState::Disconnected);
  EXPECT_EQ(h.sw->flow_table().size(), 0u);  // idle timeout removed it
}

TEST(Switch, EchoRepliesKeepChannelAlive) {
  Harness h;
  h.handshake();
  // Answer every echo request promptly for a long period.
  std::function<void()> pump = [&] {
    for (const ofp::Message& m : h.take_control()) {
      if (m.type() == ofp::MsgType::EchoRequest) {
        h.send(ofp::Message{m.xid, ofp::EchoReply{m.as<ofp::EchoRequest>().data}});
      }
    }
    h.sched.after(kSecond, pump);
  };
  h.sched.after(kSecond, pump);
  h.sched.run_until(60 * kSecond);
  EXPECT_EQ(h.sw->channel_state(), ChannelState::Connected);
}

TEST(Switch, FlowRemovedSentWhenFlagged) {
  Harness h;
  h.handshake();
  ofp::FlowMod mod;
  mod.match = ofp::Match::wildcard_all();
  mod.command = ofp::FlowModCommand::Add;
  mod.idle_timeout = 2;
  mod.flags = ofp::kFlowModSendFlowRem;
  mod.actions = ofp::output_to(std::uint16_t{3});
  h.send(ofp::make_message(10, std::move(mod)));
  h.take_control();

  // Keep echoes alive while waiting for the idle expiry.
  std::function<void()> pump = [&] {
    for (const ofp::Message& m : h.take_control()) {
      if (m.type() == ofp::MsgType::EchoRequest) {
        h.send(ofp::Message{m.xid, ofp::EchoReply{}});
      } else if (m.type() == ofp::MsgType::FlowRemoved) {
        h.control_out.push_back(m);
        return;  // leave it for the assertion
      }
    }
    h.sched.after(500 * kMillisecond, pump);
  };
  h.sched.after(500 * kMillisecond, pump);
  h.sched.run_until(5 * kSecond);
  EXPECT_GE(h.sw->counters().flow_removed_sent, 1u);
}

TEST(Switch, UnreferencedBuffersAgeOut) {
  // A PACKET_IN buffer the controller never references (e.g. a consumed
  // LLDP probe) must not leak the pool forever.
  Harness h;
  h.handshake();
  h.sw->on_packet(2, sample_packet());
  const auto pin = h.take_control().at(0).as<ofp::PacketIn>();
  ASSERT_NE(pin.buffer_id, ofp::kNoBuffer);

  // Keep echoes answered while the TTL elapses.
  std::function<void()> pump = [&] {
    for (const ofp::Message& m : h.take_control()) {
      if (m.type() == ofp::MsgType::EchoRequest) {
        h.send(ofp::Message{m.xid, ofp::EchoReply{}});
      }
    }
    h.sched.after(kSecond, pump);
  };
  h.sched.after(kSecond, pump);
  h.sched.run_until(15 * kSecond);

  // The buffer is gone: releasing it is a no-op.
  ofp::PacketOut out;
  out.buffer_id = pin.buffer_id;
  out.actions = ofp::output_to(std::uint16_t{3});
  h.send(ofp::make_message(10, std::move(out)));
  EXPECT_TRUE(h.data_out.empty());
}

TEST(Switch, BufferExpiryErasesExactlyTheAgedBuffers) {
  // Two misses a second fill the buffer pool and every third buffer is
  // released at once by PACKET_OUT, leaving holes. Across several 1 s
  // expiry ticks past the 10 s TTL, a PACKET_OUT naming a buffer older
  // than the TTL outputs nothing and one naming a younger buffer outputs.
  Harness h;
  h.handshake();
  struct Buffered {
    std::uint32_t id;
    SimTime at;
    bool released;
  };
  std::vector<Buffered> buffers;
  std::size_t outputs = 0;

  // Answers echo requests (keeping the channel up) and returns the buffer
  // id of the last PACKET_IN sent, if any.
  auto drain = [&] {
    std::uint32_t buffer_id = ofp::kNoBuffer;
    for (const ofp::Message& m : h.take_control()) {
      if (m.type() == ofp::MsgType::EchoRequest) h.send(ofp::Message{m.xid, ofp::EchoReply{}});
      if (m.type() == ofp::MsgType::PacketIn) buffer_id = m.as<ofp::PacketIn>().buffer_id;
    }
    return buffer_id;
  };
  auto packet_out = [&](Buffered& buffer) {
    ofp::PacketOut out;
    out.buffer_id = buffer.id;
    out.actions = ofp::output_to(std::uint16_t{3});
    h.send(ofp::make_message(99, std::move(out)));
    buffer.released = true;
  };
  std::function<void()> pump = [&] {
    drain();
    h.sched.after(kSecond, pump);
  };
  h.sched.after(kSecond, pump);

  // Misses at x.3 s and x.6 s, so no miss shares an instant with a tick.
  for (int i = 0; i < 60; ++i) {
    const SimTime at = (i / 2) * kSecond + (i % 2 == 0 ? 300 : 600) * kMillisecond;
    h.sched.at(at, [&, i] {
      h.sw->on_packet(2, sample_packet(100 + static_cast<std::uint64_t>(i), 2));
      const std::uint32_t id = drain();
      ASSERT_NE(id, ofp::kNoBuffer);
      buffers.push_back({id, h.sched.now(), false});
      if (i % 3 == 0) {
        packet_out(buffers.back());
        EXPECT_EQ(h.data_out.size(), ++outputs) << "a fresh buffer must output";
      }
    });
  }

  // Checkpoints 200 ms after a tick: every buffer is then either older than
  // the TTL by at least 200 ms (erased at a tick) or younger than it.
  int probes = 0;
  for (const SimTime check : {12200 * kMillisecond, 17200 * kMillisecond, 23200 * kMillisecond,
                              31200 * kMillisecond, 40200 * kMillisecond}) {
    h.sched.at(check, [&] {
      Buffered* newest_aged = nullptr;
      Buffered* oldest_young = nullptr;
      for (Buffered& b : buffers) {
        if (b.released) continue;
        if (h.sched.now() - b.at > OpenFlowSwitch::kBufferTtl) {
          newest_aged = &b;
        } else if (oldest_young == nullptr) {
          oldest_young = &b;
        }
      }
      if (newest_aged != nullptr) {
        packet_out(*newest_aged);
        EXPECT_EQ(h.data_out.size(), outputs) << "buffer " << newest_aged->id << " outlived the TTL";
        ++probes;
      }
      if (oldest_young != nullptr) {
        packet_out(*oldest_young);
        EXPECT_EQ(h.data_out.size(), ++outputs) << "buffer " << oldest_young->id << " expired early";
        ++probes;
      }
    });
  }
  h.sched.run_until(41 * kSecond);
  EXPECT_EQ(buffers.size(), 60u);
  EXPECT_EQ(probes, 9);  // no young buffer is left at the last checkpoint
}

TEST(Switch, MalformedControlFrameAnsweredWithError) {
  Harness h;
  h.handshake();
  Bytes garbage = ofp::encode(ofp::make_message(1, ofp::BarrierRequest{}));
  garbage[0] = 0x09;  // wrong version
  h.sw->on_control_envelope(chan::Envelope(garbage));
  const auto out = h.take_control();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::Error);
  EXPECT_EQ(h.sw->counters().decode_errors, 1u);
}

TEST(Switch, BarrierAnswered) {
  Harness h;
  h.handshake();
  h.send(ofp::make_message(33, ofp::BarrierRequest{}));
  const auto out = h.take_control();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type(), ofp::MsgType::BarrierReply);
  EXPECT_EQ(out[0].xid, 33u);
}

TEST(Switch, FlowStatsReplyReflectsTable) {
  Harness h;
  h.handshake();
  const pkt::Packet p = sample_packet();
  ofp::FlowMod mod;
  mod.match = ofp::Match::from_packet(p, 2);
  mod.command = ofp::FlowModCommand::Add;
  mod.actions = ofp::output_to(std::uint16_t{4});
  h.send(ofp::make_message(10, std::move(mod)));
  h.sw->on_packet(2, p);
  h.take_control();

  ofp::StatsRequest req;
  ofp::FlowStatsRequest body;
  body.match = ofp::Match::wildcard_all();
  req.body = body;
  h.send(ofp::make_message(40, std::move(req)));
  const auto out = h.take_control();
  ASSERT_EQ(out.size(), 1u);
  ASSERT_EQ(out[0].type(), ofp::MsgType::StatsReply);
  const auto& entries = std::get<std::vector<ofp::FlowStatsEntry>>(out[0].as<ofp::StatsReply>().body);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].packet_count, 1u);
}

TEST(Switch, OutputToInPortSuppressed) {
  // OF forbids forwarding out of the ingress port unless IN_PORT is used.
  Harness h;
  h.handshake();
  ofp::PacketOut out;
  out.buffer_id = ofp::kNoBuffer;
  out.in_port = 2;
  out.actions = ofp::output_to(std::uint16_t{2});
  out.data = pkt::encode(sample_packet());
  h.send(ofp::make_message(10, std::move(out)));
  EXPECT_TRUE(h.data_out.empty());

  ofp::PacketOut in_port_out;
  in_port_out.buffer_id = ofp::kNoBuffer;
  in_port_out.in_port = 2;
  in_port_out.actions = ofp::output_to(ofp::Port::InPort);
  in_port_out.data = pkt::encode(sample_packet());
  h.send(ofp::make_message(11, std::move(in_port_out)));
  ASSERT_EQ(h.data_out.size(), 1u);
  EXPECT_EQ(h.data_out[0].first, 2);
}

TEST(Switch, RewriteActionsApplyBeforeOutput) {
  Harness h;
  h.handshake();
  ofp::FlowMod mod;
  mod.match = ofp::Match::wildcard_all();
  mod.command = ofp::FlowModCommand::Add;
  mod.actions = {ofp::ActionSetNwSrc{pkt::Ipv4Address::parse("99.99.99.99")},
                 ofp::ActionOutput{3, 0xffff}};
  h.send(ofp::make_message(10, std::move(mod)));
  h.sw->on_packet(1, sample_packet());
  ASSERT_EQ(h.data_out.size(), 1u);
  EXPECT_EQ(h.data_out[0].second.ipv4->src.to_string(), "99.99.99.99");
}

}  // namespace
}  // namespace attain::swsim
