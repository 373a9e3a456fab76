// Canonical packed 12-tuple flow key. The data-plane fast path extracts a
// FlowKey exactly once per packet at switch ingress; all downstream flow
// classification (exact-match hash lookup, per-wildcard-mask bucket probes)
// operates on the key instead of re-parsing the packet's optional protocol
// headers per table entry.
//
// The field derivation mirrors OpenFlow 1.0 matching (ofp::Match::matches):
// absent L3/L4 fields canonicalize to zero, ARP reuses nw_proto for the
// opcode and nw_src/nw_dst for sender/target IP, and ICMP type/code ride in
// tp_src/tp_dst. The invariant the classifier relies on (and
// test_flow_key.cpp checks):
//
//   match.matches(packet, port) == match.matches(FlowKey::from_packet(packet, port))
#pragma once

#include <cstddef>
#include <cstdint>

#include "packet/packet.hpp"

namespace attain::pkt {

struct FlowKey {
  std::uint64_t dl_src{0};  // 48-bit MAC in the low bits
  std::uint64_t dl_dst{0};
  std::uint32_t nw_src{0};
  std::uint32_t nw_dst{0};
  std::uint16_t in_port{0};
  std::uint16_t dl_vlan{0};
  std::uint16_t dl_type{0};
  std::uint16_t tp_src{0};
  std::uint16_t tp_dst{0};
  std::uint8_t dl_vlan_pcp{0};
  std::uint8_t nw_tos{0};
  std::uint8_t nw_proto{0};

  /// Extracts the key for `packet` arriving on `in_port` (one parse of the
  /// optional header chain, total).
  static FlowKey from_packet(const Packet& packet, std::uint16_t in_port);

  /// Cheap mixing hash over the packed fields (SplitMix64 finalizer per
  /// 64-bit word). Not cryptographic; collision quality is good enough for
  /// the flow-table hash maps.
  std::size_t hash() const;

  friend bool operator==(const FlowKey&, const FlowKey&) = default;
};

/// Hasher for unordered containers keyed by FlowKey.
struct FlowKeyHash {
  std::size_t operator()(const FlowKey& key) const { return key.hash(); }
};

}  // namespace attain::pkt
