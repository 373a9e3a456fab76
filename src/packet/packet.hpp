// Data-plane packet model: address types and typed protocol headers for the
// protocols the case study exercises (Ethernet, ARP, IPv4, ICMP, TCP-lite,
// UDP). Packets can be serialized to wire bytes (packet/codec.hpp); the
// OpenFlow PACKET_IN / PACKET_OUT path carries them as pkt::Frame values
// (packet/frame.hpp), whose bytes are encoded only when something reads them.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace attain::pkt {

/// 48-bit MAC address.
struct MacAddress {
  std::array<std::uint8_t, 6> octets{};

  static MacAddress broadcast() { return MacAddress{{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}; }
  /// Parses "aa:bb:cc:dd:ee:ff"; throws std::invalid_argument on bad input.
  static MacAddress parse(const std::string& text);

  bool is_broadcast() const { return *this == broadcast(); }
  bool is_multicast() const { return (octets[0] & 0x01) != 0; }
  std::uint64_t to_u64() const;
  static MacAddress from_u64(std::uint64_t value);
  std::string to_string() const;

  friend auto operator<=>(const MacAddress&, const MacAddress&) = default;
};

/// IPv4 address stored in host order for arithmetic convenience.
struct Ipv4Address {
  std::uint32_t value{0};

  /// Parses dotted-quad "10.0.1.2"; throws std::invalid_argument on bad input.
  static Ipv4Address parse(const std::string& text);
  std::string to_string() const;

  friend auto operator<=>(const Ipv4Address&, const Ipv4Address&) = default;
};

enum class EtherType : std::uint16_t {
  Ipv4 = 0x0800,
  Arp = 0x0806,
  Lldp = 0x88cc,
};

enum class IpProto : std::uint8_t {
  Icmp = 1,
  Tcp = 6,
  Udp = 17,
};

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ether_type{0x0800};
  /// 802.1Q VLAN id, 0xffff = untagged (OpenFlow 1.0 OFP_VLAN_NONE).
  std::uint16_t vlan_id{0xffff};
  std::uint8_t vlan_pcp{0};
};

enum class ArpOp : std::uint16_t { Request = 1, Reply = 2 };

struct ArpHeader {
  ArpOp op{ArpOp::Request};
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;
  Ipv4Address target_ip;
};

struct Ipv4Header {
  std::uint8_t tos{0};
  std::uint8_t ttl{64};
  std::uint8_t proto{6};
  Ipv4Address src;
  Ipv4Address dst;
};

enum class IcmpType : std::uint8_t { EchoReply = 0, EchoRequest = 8 };

struct IcmpHeader {
  IcmpType type{IcmpType::EchoRequest};
  std::uint8_t code{0};
  std::uint16_t id{0};
  std::uint16_t seq{0};
};

/// Simplified TCP header: enough for the iperf-like reliable transport and
/// for OpenFlow L4 matching (ports). Flags follow real TCP bit positions.
struct TcpHeader {
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
  std::uint32_t seq{0};
  std::uint32_t ack{0};
  std::uint8_t flags{0};  // FIN=0x01 SYN=0x02 RST=0x04 PSH=0x08 ACK=0x10
  std::uint16_t window{0};
};

inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpPsh = 0x08;
inline constexpr std::uint8_t kTcpAck = 0x10;

struct UdpHeader {
  std::uint16_t src_port{0};
  std::uint16_t dst_port{0};
};

/// A data-plane packet: an Ethernet frame with at most one L3 header and at
/// most one L4 header. `payload_size` counts application bytes that are not
/// materialized (the simulator tracks sizes, not content); `payload_tag`
/// optionally carries a small amount of application metadata end to end
/// (e.g. a ping sequence's send timestamp).
struct Packet {
  EthernetHeader eth;
  std::optional<ArpHeader> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<IcmpHeader> icmp;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::uint32_t payload_size{0};
  std::uint64_t payload_tag{0};

  /// Total on-wire frame size in bytes (headers + payload).
  std::size_t wire_size() const;

  /// One-line human-readable rendering for logs ("h1→h6 ICMP echo-req seq=3").
  std::string summary() const;
};

/// Convenience constructors for the packet shapes the workloads use.
Packet make_arp_request(MacAddress sender_mac, Ipv4Address sender_ip, Ipv4Address target_ip);
Packet make_arp_reply(MacAddress sender_mac, Ipv4Address sender_ip, MacAddress target_mac,
                      Ipv4Address target_ip);
Packet make_icmp_echo(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                      Ipv4Address dst_ip, IcmpType type, std::uint16_t id, std::uint16_t seq,
                      std::uint64_t tag);
Packet make_tcp(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip, Ipv4Address dst_ip,
                const TcpHeader& tcp, std::uint32_t payload_size, std::uint64_t tag);

/// LLDP-style discovery probe, as emitted by controllers for topology
/// discovery. The chassis/port TLVs are packed into the payload tag:
/// (datapath id << 16) | port number. Destination is the LLDP nearest-
/// bridge multicast group.
Packet make_lldp(MacAddress src_mac, std::uint64_t dpid, std::uint16_t port);

/// Extracts (dpid, port) from an LLDP probe; returns false if the packet
/// is not one of ours.
bool parse_lldp(const Packet& packet, std::uint64_t& dpid, std::uint16_t& port);

}  // namespace attain::pkt
