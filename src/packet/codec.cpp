#include "packet/codec.hpp"

#include <algorithm>

namespace attain::pkt {

namespace {

constexpr std::uint16_t kEthTypeVlan = 0x8100;
constexpr std::uint16_t kEthTypeArp = static_cast<std::uint16_t>(EtherType::Arp);
constexpr std::uint16_t kEthTypeIpv4 = static_cast<std::uint16_t>(EtherType::Ipv4);

void encode_payload(ByteWriter& w, std::uint32_t payload_size, std::uint64_t tag) {
  if (payload_size >= 8) {
    w.u64(tag);
    w.pad(payload_size - 8);
  } else {
    w.pad(payload_size);
  }
}

struct PayloadInfo {
  std::uint32_t size;
  std::uint64_t tag;
};

PayloadInfo decode_payload(ByteReader& r) {
  PayloadInfo info{static_cast<std::uint32_t>(r.remaining()), 0};
  if (info.size >= 8) {
    info.tag = r.u64();
    r.skip(info.size - 8);
  } else {
    r.skip(info.size);
  }
  return info;
}

}  // namespace

std::uint16_t inet_checksum(std::span<const std::uint8_t> data) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < data.size(); i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (data.size() % 2 != 0) sum += static_cast<std::uint32_t>(data.back() << 8);
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum);
}

CodecOpCounters& codec_ops() {
  thread_local CodecOpCounters counters;
  return counters;
}

std::size_t encoded_size(const Packet& p) {
  std::size_t size = p.eth.vlan_id != 0xffff ? 18 : 14;
  if (p.arp) return size + 28;  // encode() writes no payload after ARP
  if (p.ipv4) size += 20 + (p.icmp ? 8 : p.tcp ? 20 : p.udp ? 8 : 0);
  return size + p.payload_size;
}

namespace {

/// Whether decode() reads encode(p)'s headers back as written: an
/// EtherType that agrees with the header present, at most one L4 header
/// whose IP protocol agrees, and a VLAN id that fits the TCI's 12 bits.
bool header_round_trips(const Packet& p) {
  const std::uint16_t ether_type = p.eth.ether_type;
  if (ether_type == kEthTypeVlan) return false;
  if (p.eth.vlan_id != 0xffff && p.eth.vlan_id > 0x0fff) return false;
  const bool icmp = p.icmp.has_value();
  const bool tcp = p.tcp.has_value();
  const bool udp = p.udp.has_value();
  const int l4_headers = int{icmp} + int{tcp} + int{udp};
  if (p.arp) return ether_type == kEthTypeArp && !p.ipv4 && l4_headers == 0;
  if (p.ipv4) {
    const std::uint8_t proto = p.ipv4->proto;
    return ether_type == kEthTypeIpv4 && l4_headers <= 1 &&
           (proto == static_cast<std::uint8_t>(IpProto::Icmp)) == icmp &&
           (proto == static_cast<std::uint8_t>(IpProto::Tcp)) == tcp &&
           (proto == static_cast<std::uint8_t>(IpProto::Udp)) == udp;
  }
  return ether_type != kEthTypeArp && ether_type != kEthTypeIpv4 && l4_headers == 0;
}

}  // namespace

std::optional<Packet> decode_prefix(const Packet& p, std::size_t cap) {
  if (!header_round_trips(p)) {
    Bytes bytes = encode(p);
    if (bytes.size() > cap) bytes.resize(cap);
    return try_decode(bytes);
  }
  const std::size_t size = std::min(encoded_size(p), cap);
  const std::size_t header = encoded_size(p) - (p.arp ? 0 : p.payload_size);
  if (size < header) return std::nullopt;  // decode() runs out of bytes
  Packet view = p;
  if (view.eth.vlan_id == 0xffff) {
    view.eth.vlan_pcp = 0;  // untagged on the wire: no PCP to read back
  } else {
    view.eth.vlan_pcp &= 0x07;  // the TCI's 3 priority bits
  }
  // The payload is whatever was captured past the headers (none for ARP,
  // whose encoding ends at its header); its first 8 bytes carry the tag.
  view.payload_size = static_cast<std::uint32_t>(size - header);
  if (view.payload_size < 8) view.payload_tag = 0;
  return view;
}

std::optional<Packet> try_decode(std::span<const std::uint8_t> data) {
  if (data.size() < 14) return std::nullopt;  // decode() needs a whole Ethernet header
  try {
    return decode(data);
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

Bytes encode(const Packet& p) {
  ++codec_ops().encodes;
  ByteWriter w;
  w.reserve(encoded_size(p));
  w.raw(p.eth.dst.octets);
  w.raw(p.eth.src.octets);
  if (p.eth.vlan_id != 0xffff) {
    w.u16(kEthTypeVlan);
    w.u16(static_cast<std::uint16_t>((p.eth.vlan_pcp << 13) | (p.eth.vlan_id & 0x0fff)));
  }
  w.u16(p.eth.ether_type);

  if (p.arp) {
    w.u16(1);       // hardware type: Ethernet
    w.u16(0x0800);  // protocol type: IPv4
    w.u8(6);
    w.u8(4);
    w.u16(static_cast<std::uint16_t>(p.arp->op));
    w.raw(p.arp->sender_mac.octets);
    w.u32(p.arp->sender_ip.value);
    w.raw(p.arp->target_mac.octets);
    w.u32(p.arp->target_ip.value);
  } else if (p.ipv4) {
    std::size_t l4 = 0;
    if (p.icmp) l4 = 8;
    if (p.tcp) l4 = 20;
    if (p.udp) l4 = 8;
    const std::uint16_t total_len = static_cast<std::uint16_t>(20 + l4 + p.payload_size);
    const std::size_t ip_start = w.size();
    w.u8(0x45);  // version 4, IHL 5
    w.u8(p.ipv4->tos);
    w.u16(total_len);
    w.u16(0);       // identification
    w.u16(0x4000);  // don't fragment
    w.u8(p.ipv4->ttl);
    w.u8(p.ipv4->proto);
    w.u16(0);  // checksum placeholder
    w.u32(p.ipv4->src.value);
    w.u32(p.ipv4->dst.value);
    const std::uint16_t csum =
        inet_checksum(std::span(w.bytes()).subspan(ip_start, 20));
    w.patch_u16(ip_start + 10, csum);

    if (p.icmp) {
      w.u8(static_cast<std::uint8_t>(p.icmp->type));
      w.u8(p.icmp->code);
      w.u16(0);  // checksum (not verified by the simulator)
      w.u16(p.icmp->id);
      w.u16(p.icmp->seq);
      encode_payload(w, p.payload_size, p.payload_tag);
    } else if (p.tcp) {
      w.u16(p.tcp->src_port);
      w.u16(p.tcp->dst_port);
      w.u32(p.tcp->seq);
      w.u32(p.tcp->ack);
      w.u8(0x50);  // data offset 5 words
      w.u8(p.tcp->flags);
      w.u16(p.tcp->window);
      w.u16(0);  // checksum
      w.u16(0);  // urgent pointer
      encode_payload(w, p.payload_size, p.payload_tag);
    } else if (p.udp) {
      w.u16(p.udp->src_port);
      w.u16(p.udp->dst_port);
      w.u16(static_cast<std::uint16_t>(8 + p.payload_size));
      w.u16(0);  // checksum
      encode_payload(w, p.payload_size, p.payload_tag);
    } else {
      encode_payload(w, p.payload_size, p.payload_tag);
    }
  } else {
    encode_payload(w, p.payload_size, p.payload_tag);
  }
  return std::move(w).take();
}

Packet decode(std::span<const std::uint8_t> data) {
  ++codec_ops().decodes;
  ByteReader r(data);
  Packet p;
  const auto dst = r.view(6);
  const auto src = r.view(6);
  std::copy(dst.begin(), dst.end(), p.eth.dst.octets.begin());
  std::copy(src.begin(), src.end(), p.eth.src.octets.begin());
  std::uint16_t ether_type = r.u16();
  if (ether_type == kEthTypeVlan) {
    const std::uint16_t tci = r.u16();
    p.eth.vlan_id = tci & 0x0fff;
    p.eth.vlan_pcp = static_cast<std::uint8_t>(tci >> 13);
    ether_type = r.u16();
  }
  p.eth.ether_type = ether_type;

  if (ether_type == kEthTypeArp) {
    r.skip(6);  // htype, ptype, hlen, plen
    ArpHeader arp;
    arp.op = static_cast<ArpOp>(r.u16());
    const auto smac = r.view(6);
    std::copy(smac.begin(), smac.end(), arp.sender_mac.octets.begin());
    arp.sender_ip.value = r.u32();
    const auto tmac = r.view(6);
    std::copy(tmac.begin(), tmac.end(), arp.target_mac.octets.begin());
    arp.target_ip.value = r.u32();
    p.arp = arp;
  } else if (ether_type == kEthTypeIpv4) {
    const std::uint8_t ver_ihl = r.u8();
    if ((ver_ihl >> 4) != 4) throw DecodeError("not IPv4");
    Ipv4Header ip;
    ip.tos = r.u8();
    r.skip(6);  // total length, id, flags/frag
    ip.ttl = r.u8();
    ip.proto = r.u8();
    r.skip(2);  // checksum
    ip.src.value = r.u32();
    ip.dst.value = r.u32();
    const std::size_t options = (static_cast<std::size_t>(ver_ihl & 0xf) - 5) * 4;
    r.skip(options);
    p.ipv4 = ip;

    if (ip.proto == static_cast<std::uint8_t>(IpProto::Icmp)) {
      IcmpHeader icmp;
      icmp.type = static_cast<IcmpType>(r.u8());
      icmp.code = r.u8();
      r.skip(2);
      icmp.id = r.u16();
      icmp.seq = r.u16();
      p.icmp = icmp;
      const PayloadInfo info = decode_payload(r);
      p.payload_size = info.size;
      p.payload_tag = info.tag;
    } else if (ip.proto == static_cast<std::uint8_t>(IpProto::Tcp)) {
      TcpHeader tcp;
      tcp.src_port = r.u16();
      tcp.dst_port = r.u16();
      tcp.seq = r.u32();
      tcp.ack = r.u32();
      const std::uint8_t offset = r.u8();
      tcp.flags = r.u8();
      tcp.window = r.u16();
      r.skip(4);  // checksum + urgent
      r.skip((static_cast<std::size_t>(offset >> 4) - 5) * 4);
      p.tcp = tcp;
      const PayloadInfo info = decode_payload(r);
      p.payload_size = info.size;
      p.payload_tag = info.tag;
    } else if (ip.proto == static_cast<std::uint8_t>(IpProto::Udp)) {
      UdpHeader udp;
      udp.src_port = r.u16();
      udp.dst_port = r.u16();
      r.skip(4);  // length + checksum
      p.udp = udp;
      const PayloadInfo info = decode_payload(r);
      p.payload_size = info.size;
      p.payload_tag = info.tag;
    } else {
      const PayloadInfo info = decode_payload(r);
      p.payload_size = info.size;
      p.payload_tag = info.tag;
    }
  } else {
    const PayloadInfo info = decode_payload(r);
    p.payload_size = info.size;
    p.payload_tag = info.tag;
  }
  return p;
}

}  // namespace attain::pkt
