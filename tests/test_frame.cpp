// pkt::Frame against the packet codec. The contract: a frame built from a
// packet and a capture length `cap` reads exactly as the codec would read
// encode(p) truncated to `cap` — size(), bytes() and packet() — without
// encoding on the size and packet paths; a frame built from bytes decodes
// them; an edit through mutable_bytes() drops the typed view.
#include "packet/frame.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "chan/envelope.hpp"
#include "common/rng.hpp"
#include "ofp/messages.hpp"
#include "packet/codec.hpp"

namespace attain::pkt {
namespace {

// Like the other differential fuzzes, ATTAIN_DIFF_FUZZ_ITERS overrides the
// packet count (CI's sanitizer job sets it).
int fuzz_iters(int fallback) {
  if (const char* env = std::getenv("ATTAIN_DIFF_FUZZ_ITERS")) {
    const long total = std::atol(env);
    if (total > 0) return static_cast<int>(total);
  }
  return fallback;
}

/// Every field of a packet, for comparing views with a readable diff.
std::string describe(const std::optional<Packet>& packet) {
  if (!packet) return "none";
  const Packet& p = *packet;
  std::ostringstream out;
  out << "eth " << p.eth.dst.to_string() << " " << p.eth.src.to_string() << " type "
      << p.eth.ether_type << " vlan " << p.eth.vlan_id << "/" << int{p.eth.vlan_pcp};
  if (p.arp) {
    out << " arp " << static_cast<int>(p.arp->op) << " " << p.arp->sender_mac.to_string() << " "
        << p.arp->sender_ip.value << " " << p.arp->target_mac.to_string() << " "
        << p.arp->target_ip.value;
  }
  if (p.ipv4) {
    out << " ip " << int{p.ipv4->tos} << " " << int{p.ipv4->ttl} << " " << int{p.ipv4->proto}
        << " " << p.ipv4->src.value << " " << p.ipv4->dst.value;
  }
  if (p.icmp) {
    out << " icmp " << static_cast<int>(p.icmp->type) << " " << int{p.icmp->code} << " "
        << p.icmp->id << " " << p.icmp->seq;
  }
  if (p.tcp) {
    out << " tcp " << p.tcp->src_port << " " << p.tcp->dst_port << " " << p.tcp->seq << " "
        << p.tcp->ack << " " << int{p.tcp->flags} << " " << p.tcp->window;
  }
  if (p.udp) out << " udp " << p.udp->src_port << " " << p.udp->dst_port;
  out << " payload " << p.payload_size << " tag " << p.payload_tag;
  return out.str();
}

std::optional<Packet> codec_view(std::span<const std::uint8_t> bytes) {
  try {
    return decode(bytes);
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

template <typename T>
T pick(Rng& rng, std::initializer_list<T> values) {
  return *(values.begin() + rng.next_below(values.size()));
}

MacAddress random_mac(Rng& rng) { return MacAddress::from_u64(rng.next_u64() & 0xffffffffffffULL); }

/// Mostly the shapes the workloads build, then perturbed: EtherTypes that
/// disagree with the header present, extra or missing L4 headers, IP
/// protocols that disagree with the L4 header, VLAN edges.
Packet random_packet(Rng& rng) {
  Packet p;
  p.eth.dst = random_mac(rng);
  p.eth.src = random_mac(rng);
  switch (rng.next_below(5)) {
    case 0: {
      p = make_arp_request(p.eth.src, Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())},
                           Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())});
      if (rng.chance(0.5)) p.arp->op = ArpOp::Reply;
      p.arp->target_mac = random_mac(rng);
      break;
    }
    case 1:
      p = make_icmp_echo(p.eth.src, p.eth.dst, Ipv4Address{0x0a000001}, Ipv4Address{0x0a000002},
                         rng.chance(0.5) ? IcmpType::EchoRequest : IcmpType::EchoReply,
                         static_cast<std::uint16_t>(rng.next_u64()),
                         static_cast<std::uint16_t>(rng.next_u64()), rng.next_u64());
      break;
    case 2: {
      TcpHeader tcp;
      tcp.src_port = static_cast<std::uint16_t>(rng.next_u64());
      tcp.dst_port = static_cast<std::uint16_t>(rng.next_u64());
      tcp.seq = static_cast<std::uint32_t>(rng.next_u64());
      tcp.ack = static_cast<std::uint32_t>(rng.next_u64());
      tcp.flags = static_cast<std::uint8_t>(rng.next_u64());
      tcp.window = static_cast<std::uint16_t>(rng.next_u64());
      p = make_tcp(p.eth.src, p.eth.dst, Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())},
                   Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())}, tcp, 0,
                   rng.next_u64());
      break;
    }
    case 3:
      p.eth.ether_type = static_cast<std::uint16_t>(EtherType::Ipv4);
      p.ipv4 = Ipv4Header{.tos = static_cast<std::uint8_t>(rng.next_u64()),
                          .ttl = static_cast<std::uint8_t>(rng.next_u64()),
                          .proto = static_cast<std::uint8_t>(IpProto::Udp),
                          .src = Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())},
                          .dst = Ipv4Address{static_cast<std::uint32_t>(rng.next_u64())}};
      p.udp = UdpHeader{static_cast<std::uint16_t>(rng.next_u64()),
                        static_cast<std::uint16_t>(rng.next_u64())};
      break;
    default:
      p = make_lldp(p.eth.src, rng.next_u64() & 0xffffffffffffULL,
                    static_cast<std::uint16_t>(rng.next_u64()));
      break;
  }
  p.payload_size = rng.chance(0.3) ? static_cast<std::uint32_t>(rng.next_below(16))
                                   : static_cast<std::uint32_t>(rng.next_below(1600));
  p.payload_tag = rng.next_u64();

  if (rng.chance(0.3)) {
    p.eth.vlan_id = pick<std::uint16_t>(rng, {0, 1, 0x0ffe, 0x0fff, 0x1000, 0xfffe,
                                              static_cast<std::uint16_t>(rng.next_u64())});
  }
  p.eth.vlan_pcp = rng.chance(0.5) ? static_cast<std::uint8_t>(rng.next_below(8))
                                   : static_cast<std::uint8_t>(rng.next_u64());
  if (rng.chance(0.15)) {
    p.eth.ether_type = pick<std::uint16_t>(rng, {0x0800, 0x0806, 0x88cc, 0x8100,
                                                 static_cast<std::uint16_t>(rng.next_u64())});
  }
  if (rng.chance(0.1) && p.ipv4) {
    p.ipv4->proto = pick<std::uint8_t>(rng, {1, 6, 17, static_cast<std::uint8_t>(rng.next_u64())});
  }
  if (rng.chance(0.08)) p.tcp = TcpHeader{};
  if (rng.chance(0.08)) p.udp = UdpHeader{};
  if (rng.chance(0.08)) p.icmp = IcmpHeader{};
  if (rng.chance(0.05)) p.ipv4.reset();
  if (rng.chance(0.05)) p.arp = ArpHeader{};
  if (rng.chance(0.05)) p.ipv4 = Ipv4Header{};
  return p;
}

TEST(Frame, ViewMatchesCodec) {
  Rng rng(0xf4a3e);
  const int packets = fuzz_iters(3000);
  std::uint64_t cases = 0;
  std::uint64_t field_views = 0;
  for (int i = 0; i < packets; ++i) {
    const Packet p = random_packet(rng);
    const Bytes full = encode(p);
    ASSERT_EQ(encoded_size(p), full.size()) << describe(p);
    // The header length encode() wrote ahead of the payload (for shapes
    // with a payload); a shorter capture cuts into the headers.
    const std::size_t header = p.arp ? full.size() : full.size() - p.payload_size;
    for (const std::size_t cap :
         {std::size_t{0}, header == 0 ? 0 : header - 1, header, std::size_t{128}, full.size(),
          Frame::kWhole, static_cast<std::size_t>(rng.next_below(full.size() + 2))}) {
      ++cases;
      const std::size_t size = std::min(cap, full.size());
      const Bytes expected(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(size));
      const std::string where = "packet " + std::to_string(i) + " cap " + std::to_string(cap) +
                                ": " + describe(p);

      const Frame frame(p, cap);
      codec_ops() = {};
      ASSERT_EQ(frame.size(), size) << where;
      ASSERT_EQ(codec_ops().encodes, 0u) << "size() must not encode: " << where;
      const std::optional<Packet> view = frame.packet();
      if (codec_ops().total() == 0) ++field_views;  // not a codec fallback
      ASSERT_EQ(describe(view), describe(codec_view(expected))) << where;
      ASSERT_EQ(frame.bytes(), expected) << where;

      // An edit through mutable_bytes() drops the typed view.
      Frame edited(p, cap);
      Bytes& bytes = edited.mutable_bytes();
      if (!bytes.empty() && rng.chance(0.5)) {
        bytes[rng.next_below(bytes.size())] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      } else {
        bytes.resize(rng.next_below(bytes.size() + 1));
      }
      const Bytes edit = bytes;
      ASSERT_EQ(edited.size(), edit.size()) << where;
      ASSERT_EQ(edited.bytes(), edit) << where;
      ASSERT_EQ(describe(edited.packet()), describe(codec_view(edit))) << where;
    }
  }
  EXPECT_EQ(cases, static_cast<std::uint64_t>(packets) * 7);
  // Most generated shapes round-trip, so most views are built field by field.
  EXPECT_GT(field_views, cases / 2);
}

TEST(Frame, TypedFrameEncodesOnlyWhenBytesAreRead) {
  TcpHeader tcp;
  tcp.src_port = 40000;
  tcp.dst_port = 5001;
  const Packet p = make_tcp(MacAddress::from_u64(1), MacAddress::from_u64(2), Ipv4Address{1},
                            Ipv4Address{2}, tcp, 1460, 0x1122334455667788ULL);
  const Frame frame(p, 128);
  codec_ops() = {};
  EXPECT_EQ(frame.size(), 128u);
  const std::optional<Packet> view = frame.packet();
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->payload_size, 128u - 54u);
  EXPECT_EQ(view->payload_tag, 0x1122334455667788ULL);
  const Frame copy = frame;
  EXPECT_EQ(codec_ops().total(), 0u);
  EXPECT_EQ(copy.bytes().size(), 128u);
  EXPECT_EQ(codec_ops().encodes, 1u);
  EXPECT_EQ(copy, Frame(Bytes(copy.bytes())));  // equality compares bytes
}

TEST(Frame, BytesOriginDecodesOnDemand) {
  const Packet p = make_lldp(MacAddress::from_u64(9), 1, 3);
  const Frame frame(encode(p));
  codec_ops() = {};
  ASSERT_TRUE(frame.packet().has_value());
  EXPECT_EQ(codec_ops().decodes, 1u);
  EXPECT_FALSE(Frame{}.packet().has_value());
  EXPECT_FALSE(Frame({1, 2, 3}).packet().has_value());
}

// A frame holds one Packet, a size, one byte buffer and a flag, so the
// control messages carrying it keep their size.
TEST(Frame, MessageAndEnvelopeSizesDoNotGrow) {
  EXPECT_LE(sizeof(ofp::Message), 192u);
  EXPECT_LE(sizeof(chan::Envelope), 216u);
}

}  // namespace
}  // namespace attain::pkt
