// Wire codec for data-plane packets. The frames inside OpenFlow
// PACKET_IN/PACKET_OUT travel as typed pkt::Frame values (packet/frame.hpp);
// this codec produces their bytes only when something reads them, so the
// injector can still inspect, modify, and fuzz the embedded frames exactly
// as a real interposer would.
//
// Encoding notes: standard Ethernet/ARP/IPv4/ICMP/TCP/UDP layouts are used.
// The simulator's non-materialized payload is encoded as `payload_size`
// bytes, the first 8 of which carry `payload_tag` (big-endian) when the
// payload is large enough; checksums are computed but not verified.
#pragma once

#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "packet/packet.hpp"

namespace attain::pkt {

/// Per-thread packet-codec invocation counters: encode()/decode() bump
/// them, so a test can show that a cell never serializes a data-plane frame.
struct CodecOpCounters {
  std::uint64_t encodes{0};
  std::uint64_t decodes{0};
  std::uint64_t total() const { return encodes + decodes; }
};

CodecOpCounters& codec_ops();

/// Serializes a packet to wire bytes. The result's size is
/// encoded_size(packet), which equals `packet.wire_size()` for every shape
/// the workloads build.
Bytes encode(const Packet& packet);

/// encode(packet).size(), computed without encoding (no codec_ops() bump).
std::size_t encoded_size(const Packet& packet);

/// Parses wire bytes back into a Packet. Throws DecodeError on truncated or
/// unsupported frames (only EtherTypes/IpProtos modelled above are valid).
Packet decode(std::span<const std::uint8_t> data);

/// decode(data), or std::nullopt where it throws.
std::optional<Packet> try_decode(std::span<const std::uint8_t> data);

/// What try_decode() returns for the first `cap` bytes of encode(packet).
/// Computed field by field, without the codec, for every packet whose
/// headers decode() reads back as written (pkt::Frame's captured view);
/// any other shape is encoded, truncated and decoded.
std::optional<Packet> decode_prefix(const Packet& packet, std::size_t cap);

/// RFC 1071 ones'-complement checksum over `data` (used for IPv4/ICMP).
std::uint16_t inet_checksum(std::span<const std::uint8_t> data);

}  // namespace attain::pkt
