// Typed data-plane frames for the OpenFlow PACKET_IN / PACKET_OUT data
// field. A Frame carries one captured frame in whichever representation it
// was built from, the way chan::Envelope carries one control frame:
//
//   * from a pkt::Packet plus a capture length `cap` (the switch's table
//     miss, a controller's LLDP probe): size() is min(encode(p).size(), cap)
//     computed without encoding, bytes() is encode(p) truncated to `cap`,
//     encoded only when something reads the bytes (the fuzz modifier via
//     chan::Envelope::mutable_wire, ofp::encode, ofp::StampedTemplate,
//     tests), and packet() is exactly what pkt::decode(bytes()) returns —
//     pkt::decode_prefix() computes it field by field for every shape the
//     codec round-trips;
//   * from raw bytes (a decoded wire frame, a fuzzed frame, a test):
//     packet() decodes them on demand.
//
// packet() is std::nullopt exactly where pkt::decode(bytes()) throws.
// mutable_bytes() materializes the bytes and drops the typed view, so an
// edit can never leak a mismatched packet. Equality compares bytes.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "packet/packet.hpp"

namespace attain::pkt {

class Frame {
 public:
  /// Capture length meaning "the whole frame".
  static constexpr std::size_t kWhole = SIZE_MAX;

  Frame() = default;
  /// Raw-bytes origin.
  Frame(Bytes bytes) : bytes_(std::move(bytes)) {}
  Frame(std::initializer_list<std::uint8_t> bytes) : bytes_(bytes) {}
  /// Typed origin: the first `cap` bytes of the packet's encoding. Throws
  /// std::length_error when the captured size does not fit 32 bits.
  explicit Frame(Packet packet, std::size_t cap = kWhole);

  std::size_t size() const { return typed_ ? size_ : bytes_.size(); }
  bool empty() const { return size() == 0; }

  /// The captured bytes (encoded on first call for a typed frame).
  const Bytes& bytes() const;
  /// Mutable bytes; materializes them first and drops the typed view.
  Bytes& mutable_bytes();
  void assign(std::size_t count, std::uint8_t value) { mutable_bytes().assign(count, value); }
  operator std::span<const std::uint8_t>() const { return bytes(); }

  /// What pkt::decode(bytes()) returns, or std::nullopt where it throws.
  std::optional<Packet> packet() const;

  friend bool operator==(const Frame& a, const Frame& b) {
    return a.size() == b.size() && a.bytes() == b.bytes();
  }

 private:
  // The typed source is kept, not a decoded view: its captured view is
  // cheap to derive per packet() call, and one Packet keeps the control
  // messages that carry frames (ofp::Message, chan::Envelope) their size.
  Packet packet_;
  std::uint32_t size_{0};  // captured size of a typed frame
  bool typed_{false};      // packet_ is the source; bytes_ are a lazy cache
  mutable Bytes bytes_;    // the bytes (raw origin) or their cache (typed)
};

}  // namespace attain::pkt
