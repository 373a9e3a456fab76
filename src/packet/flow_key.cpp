#include "packet/flow_key.hpp"

namespace attain::pkt {

namespace {

/// SplitMix64 finalizer: cheap avalanche for one 64-bit word.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

FlowKey FlowKey::from_packet(const Packet& p, std::uint16_t in_port) {
  FlowKey k;
  k.in_port = in_port;
  k.dl_src = p.eth.src.to_u64();
  k.dl_dst = p.eth.dst.to_u64();
  k.dl_vlan = p.eth.vlan_id;
  k.dl_vlan_pcp = p.eth.vlan_pcp;
  k.dl_type = p.eth.ether_type;
  if (p.ipv4) {
    k.nw_tos = p.ipv4->tos;
    k.nw_proto = p.ipv4->proto;
    k.nw_src = p.ipv4->src.value;
    k.nw_dst = p.ipv4->dst.value;
  } else if (p.arp) {
    // OF1.0 matches the ARP opcode via nw_proto and sender/target IP via
    // nw_src/nw_dst (spec §3.4).
    k.nw_proto = static_cast<std::uint8_t>(static_cast<std::uint16_t>(p.arp->op));
    k.nw_src = p.arp->sender_ip.value;
    k.nw_dst = p.arp->target_ip.value;
  }
  if (p.tcp) {
    k.tp_src = p.tcp->src_port;
    k.tp_dst = p.tcp->dst_port;
  } else if (p.udp) {
    k.tp_src = p.udp->src_port;
    k.tp_dst = p.udp->dst_port;
  } else if (p.icmp) {
    // OF1.0 reuses tp_src/tp_dst for ICMP type/code.
    k.tp_src = static_cast<std::uint16_t>(p.icmp->type);
    k.tp_dst = p.icmp->code;
  }
  return k;
}

std::size_t FlowKey::hash() const {
  // Pack the twelve fields into four 64-bit words, then mix.
  const std::uint64_t w0 = dl_src | (static_cast<std::uint64_t>(in_port) << 48);
  const std::uint64_t w1 = dl_dst | (static_cast<std::uint64_t>(dl_vlan) << 48);
  const std::uint64_t w2 =
      static_cast<std::uint64_t>(nw_src) | (static_cast<std::uint64_t>(nw_dst) << 32);
  const std::uint64_t w3 = static_cast<std::uint64_t>(dl_type) |
                           (static_cast<std::uint64_t>(tp_src) << 16) |
                           (static_cast<std::uint64_t>(tp_dst) << 32) |
                           (static_cast<std::uint64_t>(dl_vlan_pcp) << 48) |
                           (static_cast<std::uint64_t>(nw_tos) << 56);
  std::uint64_t h = mix64(w0);
  h = mix64(h ^ w1);
  h = mix64(h ^ w2);
  h = mix64(h ^ w3);
  h = mix64(h ^ nw_proto);
  return static_cast<std::size_t>(h);
}

}  // namespace attain::pkt
