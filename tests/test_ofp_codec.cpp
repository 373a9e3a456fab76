#include "ofp/codec.hpp"

#include <gtest/gtest.h>

#include "ofp/fuzz.hpp"
#include "packet/codec.hpp"
#include "support/frame_assembler.hpp"

namespace attain::ofp {
namespace {

Message roundtrip(const Message& m) { return decode(encode(m)); }

/// Parameterized roundtrip over representative messages of every type.
class CodecRoundTrip : public ::testing::TestWithParam<Message> {};

std::vector<Message> representative_messages() {
  std::vector<Message> msgs;
  msgs.push_back(make_message(1, Hello{}));
  msgs.push_back(make_message(2, Error{ErrorType::FlowModFailed, 3, {1, 2, 3}}));
  msgs.push_back(make_message(3, EchoRequest{{0xde, 0xad}}));
  msgs.push_back(make_message(4, EchoReply{{}}));
  msgs.push_back(make_message(5, Vendor{0x2320, {9, 9}}));
  msgs.push_back(make_message(6, FeaturesRequest{}));
  {
    FeaturesReply reply;
    reply.datapath_id = 0xabcdef;
    reply.n_buffers = 256;
    reply.n_tables = 2;
    PhyPort port;
    port.port_no = 1;
    port.hw_addr = pkt::MacAddress::from_u64(0x42);
    port.name = "s1-eth1";
    reply.ports.push_back(port);
    port.port_no = 2;
    port.name = "s1-eth2";
    reply.ports.push_back(port);
    msgs.push_back(make_message(7, std::move(reply)));
  }
  msgs.push_back(make_message(8, GetConfigRequest{}));
  msgs.push_back(make_message(9, GetConfigReply{1, 128}));
  msgs.push_back(make_message(10, SetConfig{0, 256}));
  {
    PacketIn pin;
    pin.buffer_id = 77;
    pin.total_len = 98;
    pin.in_port = 3;
    pin.reason = PacketInReason::NoMatch;
    pin.data = {1, 2, 3, 4, 5};
    msgs.push_back(make_message(11, std::move(pin)));
  }
  {
    FlowRemoved removed;
    removed.match = Match::l2_only(1, pkt::MacAddress::from_u64(1), pkt::MacAddress::from_u64(2));
    removed.cookie = 0x1234;
    removed.priority = 10;
    removed.reason = FlowRemovedReason::IdleTimeout;
    removed.duration_sec = 12;
    removed.idle_timeout = 10;
    removed.packet_count = 100;
    removed.byte_count = 14000;
    msgs.push_back(make_message(12, std::move(removed)));
  }
  {
    PortStatus status;
    status.reason = PortReason::Modify;
    status.desc.port_no = 2;
    status.desc.name = "s3-eth2";
    msgs.push_back(make_message(13, std::move(status)));
  }
  {
    PacketOut out;
    out.buffer_id = kNoBuffer;
    out.in_port = 1;
    out.actions = output_to(Port::Flood);
    out.data = {0xca, 0xfe};
    msgs.push_back(make_message(14, std::move(out)));
  }
  {
    FlowMod mod;
    mod.match = Match::wildcard_all();
    mod.cookie = 99;
    mod.command = FlowModCommand::Add;
    mod.idle_timeout = 10;
    mod.hard_timeout = 30;
    mod.priority = 0x8000;
    mod.buffer_id = 5;
    mod.flags = kFlowModSendFlowRem;
    mod.actions = {ActionOutput{2, 0xffff}, ActionSetNwSrc{pkt::Ipv4Address::parse("1.2.3.4")},
                   ActionSetDlDst{pkt::MacAddress::from_u64(6)}};
    msgs.push_back(make_message(15, std::move(mod)));
  }
  {
    PortMod mod;
    mod.port_no = 4;
    mod.hw_addr = pkt::MacAddress::from_u64(0x99);
    mod.config = 1;
    mod.mask = 1;
    msgs.push_back(make_message(16, std::move(mod)));
  }
  msgs.push_back(make_message(17, StatsRequest{0, DescStatsRequest{}}));
  {
    StatsRequest req;
    FlowStatsRequest body;
    body.match = Match::wildcard_all();
    req.body = body;
    msgs.push_back(make_message(18, std::move(req)));
  }
  {
    StatsRequest req;
    req.body = PortStatsRequest{static_cast<std::uint16_t>(Port::None)};
    msgs.push_back(make_message(19, std::move(req)));
  }
  {
    StatsReply reply;
    DescStats desc;
    desc.mfr_desc = "ATTAIN";
    desc.sw_desc = "swsim";
    desc.dp_desc = "s1";
    reply.body = std::move(desc);
    msgs.push_back(make_message(20, std::move(reply)));
  }
  {
    StatsReply reply;
    std::vector<FlowStatsEntry> entries(2);
    entries[0].match = Match::wildcard_all();
    entries[0].priority = 1;
    entries[0].packet_count = 7;
    entries[0].actions = output_to(std::uint16_t{3});
    entries[1].match =
        Match::l2_only(2, pkt::MacAddress::from_u64(3), pkt::MacAddress::from_u64(4));
    entries[1].byte_count = 4242;
    reply.body = std::move(entries);
    msgs.push_back(make_message(21, std::move(reply)));
  }
  {
    StatsReply reply;
    reply.body = AggregateStats{100, 15000, 3};
    msgs.push_back(make_message(22, std::move(reply)));
  }
  {
    StatsReply reply;
    std::vector<PortStatsEntry> entries(1);
    entries[0].port_no = 1;
    entries[0].rx_packets = 5;
    entries[0].tx_bytes = 900;
    reply.body = std::move(entries);
    msgs.push_back(make_message(23, std::move(reply)));
  }
  msgs.push_back(make_message(24, BarrierRequest{}));
  msgs.push_back(make_message(25, BarrierReply{}));
  return msgs;
}

TEST_P(CodecRoundTrip, EncodeDecodeIdentity) {
  const Message& original = GetParam();
  const Message decoded = roundtrip(original);
  EXPECT_EQ(decoded, original);
}

TEST_P(CodecRoundTrip, HeaderMatchesBody) {
  const Message& original = GetParam();
  const Bytes wire = encode(original);
  const Header header = decode_header(wire);
  EXPECT_EQ(header.version, kVersion);
  EXPECT_EQ(header.type, original.type());
  EXPECT_EQ(header.length, wire.size());
  EXPECT_EQ(header.xid, original.xid);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, CodecRoundTrip,
                         ::testing::ValuesIn(representative_messages()),
                         [](const ::testing::TestParamInfo<Message>& info) {
                           return to_string(info.param.type()) + "_" +
                                  std::to_string(info.index);
                         });

TEST(Codec, RejectsWrongVersion) {
  Bytes wire = encode(make_message(1, Hello{}));
  wire[0] = 0x04;
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, RejectsUnknownType) {
  Bytes wire = encode(make_message(1, Hello{}));
  wire[1] = 200;
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, RejectsTruncatedBody) {
  Bytes wire = encode(make_message(1, SetConfig{0, 128}));
  wire.resize(wire.size() - 2);
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, RejectsShortHeaderLength) {
  Bytes wire = encode(make_message(1, Hello{}));
  wire[2] = 0;
  wire[3] = 4;  // length < 8
  EXPECT_THROW(decode(wire), DecodeError);
}

TEST(Codec, PacketInCarriesRealFrame) {
  const pkt::Packet frame = pkt::make_icmp_echo(
      pkt::MacAddress::from_u64(1), pkt::MacAddress::from_u64(6),
      pkt::Ipv4Address::parse("10.0.0.1"), pkt::Ipv4Address::parse("10.0.0.6"),
      pkt::IcmpType::EchoRequest, 1, 1, 0);
  PacketIn pin;
  pin.data = pkt::encode(frame);
  pin.total_len = static_cast<std::uint16_t>(pin.data.size());
  const Message decoded = roundtrip(make_message(30, std::move(pin)));
  const pkt::Packet recovered = pkt::decode(decoded.as<PacketIn>().data);
  EXPECT_EQ(recovered.ipv4->dst.to_string(), "10.0.0.6");
}

TEST(FrameAssembler, ReassemblesSplitFrames) {
  const Bytes a = encode(make_message(1, EchoRequest{{1, 2, 3}}));
  const Bytes b = encode(make_message(2, BarrierRequest{}));
  Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameAssembler assembler;
  // Feed in awkward chunks.
  assembler.feed(std::span(stream).subspan(0, 3));
  EXPECT_FALSE(assembler.next_frame().has_value());
  assembler.feed(std::span(stream).subspan(3, 9));
  const auto frame1 = assembler.next_frame();
  ASSERT_TRUE(frame1.has_value());
  EXPECT_EQ(*frame1, a);
  EXPECT_FALSE(assembler.next_frame().has_value());
  assembler.feed(std::span(stream).subspan(12));
  const auto frame2 = assembler.next_frame();
  ASSERT_TRUE(frame2.has_value());
  EXPECT_EQ(*frame2, b);
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, SplitsHeaderAcrossChunks) {
  const Bytes a = encode(make_message(7, EchoRequest{{9, 9, 9, 9}}));
  FrameAssembler assembler;
  // One byte at a time: the 8-byte header itself arrives fragmented.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_FALSE(assembler.next_frame().has_value());
    assembler.feed(std::span(a).subspan(i, 1));
  }
  const auto frame = assembler.next_frame();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, a);
}

TEST(FrameAssembler, CoalescedFramesPopIndividually) {
  const Bytes a = encode(make_message(1, Hello{}));
  const Bytes b = encode(make_message(2, EchoRequest{{4, 5}}));
  const Bytes c = encode(make_message(3, BarrierRequest{}));
  Bytes stream = a;
  stream.insert(stream.end(), b.begin(), b.end());
  stream.insert(stream.end(), c.begin(), c.end());

  FrameAssembler assembler;
  assembler.feed(stream);  // three frames in one chunk
  EXPECT_EQ(*assembler.next_frame(), a);
  EXPECT_EQ(*assembler.next_frame(), b);
  EXPECT_EQ(*assembler.next_frame(), c);
  EXPECT_FALSE(assembler.next_frame().has_value());
  EXPECT_EQ(assembler.buffered(), 0u);
}

TEST(FrameAssembler, GarbageLengthFieldThrows) {
  Bytes wire = encode(make_message(1, Hello{}));
  wire[2] = 0;
  wire[3] = 4;  // header length < 8: the stream is unrecoverable
  FrameAssembler assembler;
  assembler.feed(wire);
  EXPECT_THROW(assembler.next_frame(), DecodeError);
}

TEST(FrameAssembler, GarbageVersionThrows) {
  Bytes wire = encode(make_message(1, Hello{}));
  wire[0] = 0x63;  // not OpenFlow 1.0
  FrameAssembler assembler;
  assembler.feed(wire);
  EXPECT_THROW(assembler.next_frame(), DecodeError);
}

TEST(FrameAssembler, OverlongLengthFieldWaitsForMoreInput) {
  Bytes wire = encode(make_message(1, Hello{}));
  wire[2] = 0x01;
  wire[3] = 0x00;  // claims 256 bytes; only 8 buffered
  FrameAssembler assembler;
  assembler.feed(wire);
  EXPECT_FALSE(assembler.next_frame().has_value());
  EXPECT_EQ(assembler.buffered(), wire.size());
}

TEST(Codec, MessageSummaryIsInformative) {
  FlowMod mod;
  mod.command = FlowModCommand::Add;
  mod.actions = output_to(std::uint16_t{2});
  const Message m = make_message(5, std::move(mod));
  const std::string s = m.summary();
  EXPECT_NE(s.find("FLOW_MOD"), std::string::npos);
  EXPECT_NE(s.find("ADD"), std::string::npos);
}

/// wire_length() is the size encode() produces, computed without encoding.
/// Covers every type (all four stats request and reply bodies), empty and
/// near-64 KiB data, and the decodable frames a bit-flip fuzzer makes.
TEST(OfpCodec, WireLengthMatchesEncode) {
  std::vector<Message> msgs = representative_messages();
  {
    StatsRequest req;
    req.body = AggregateStatsRequest{Match::wildcard_all(), 0xff, 2};
    msgs.push_back(make_message(30, std::move(req)));
  }
  {
    StatsReply reply;
    FlowStatsEntry entry;
    entry.actions = {ActionSetDlSrc{pkt::MacAddress::from_u64(1)}, ActionEnqueue{3, 1},
                     ActionOutput{1, 0xffff}};
    reply.body = std::vector<FlowStatsEntry>{entry, entry};
    msgs.push_back(make_message(31, std::move(reply)));
  }
  msgs.push_back(make_message(32, PacketIn{}));
  msgs.push_back(make_message(33, Error{}));
  {
    PacketIn pin;
    pin.data.assign(0xffff - kHeaderSize - 10, 0xab);  // exactly 64 KiB - 1 on the wire
    msgs.push_back(make_message(34, std::move(pin)));
  }
  {
    PacketOut out;
    out.actions = output_to(Port::Flood);
    out.data.assign(40000, 0x5a);
    msgs.push_back(make_message(35, std::move(out)));
  }

  const auto encodes_before = codec_ops().encodes;
  for (const Message& m : msgs) wire_length(m);
  EXPECT_EQ(codec_ops().encodes, encodes_before);  // sizing never encodes

  std::size_t fuzzed_decodes = 0;
  for (const Message& m : msgs) {
    const Bytes wire = encode(m);
    EXPECT_EQ(wire_length(m), wire.size()) << m.summary();
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      Bytes frame = wire;
      Rng rng(seed);
      fuzz_frame(frame, rng);
      Message mutated;
      try {
        mutated = decode(frame);
      } catch (const DecodeError&) {
        continue;
      }
      ++fuzzed_decodes;
      EXPECT_EQ(wire_length(mutated), encode(mutated).size()) << mutated.summary();
    }
  }
  EXPECT_GT(fuzzed_decodes, 500u);

  EchoRequest oversize;
  oversize.data.resize(0x10000 - kHeaderSize);  // one byte over the 16-bit length
  const Message too_big = make_message(36, std::move(oversize));
  EXPECT_THROW(wire_length(too_big), std::length_error);
  EXPECT_THROW(encode(too_big), std::length_error);
}

TEST(Codec, OversizeMessageThrows) {
  EchoRequest echo;
  echo.data.resize(70000);
  EXPECT_THROW(encode(make_message(1, std::move(echo))), std::length_error);
}

}  // namespace
}  // namespace attain::ofp
