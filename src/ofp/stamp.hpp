// Template-stamped OpenFlow encoding for flood-shaped message streams.
//
// A StampedTemplate runs the full visitor encoder once over a prototype
// Message, then discovers — by mutate/re-encode/diff against ofp::encode —
// the wire offsets of the header/body fields that vary across a volumetric
// flood (xid, buffer_id, in_port, total_len, and the trailing raw-data
// region). Emitting a flood instance is then O(patched bytes): in-place
// big-endian stores plus one same-length memcpy for the payload, with the
// typed message patched in lock step so wire() == ofp::encode(message())
// always holds.
//
// The simulated control channel does not use it: frames travel as typed
// messages and are sized with ofp::wire_length, so no bytes are produced at
// all. It serves callers that need many real frames of one shape, such as
// bench_batch_pipeline and the e2e benchmark's codec replay.
//
// Discovery is self-validating: each field is probed with two values whose
// encodings differ in every byte, the probe bytes must land verbatim at a
// unique offset, and a pure byte patch must reproduce the full re-encode
// byte-for-byte — otherwise the field reports unstampable and callers fall
// back to the full codec. tests/test_stamp.cpp differential-fuzzes the
// stamped emit against ofp::encode across all stampable message types.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "ofp/messages.hpp"

namespace attain::ofp {

class StampedTemplate {
 public:
  /// Builds a template from a prototype (one full encode + a few probe
  /// encodes). Never fails outright; fields that cannot be discovered or
  /// validated are reported unstampable.
  explicit StampedTemplate(Message prototype);

  bool can_stamp_xid() const { return xid_off_.has_value(); }
  bool can_stamp_buffer_id() const { return buffer_id_off_.has_value(); }
  bool can_stamp_in_port() const { return in_port_off_.has_value(); }
  bool can_stamp_total_len() const { return total_len_off_.has_value(); }
  /// Data stamping is a same-length splice of the trailing raw region.
  bool can_stamp_data(std::size_t size) const {
    return data_off_.has_value() && size == data_size_;
  }

  /// Stampers patch the wire image and the typed message together; each
  /// returns false (leaving both views unchanged) when the field is not
  /// stampable for this prototype.
  bool set_xid(std::uint32_t xid);
  bool set_buffer_id(std::uint32_t buffer_id);
  bool set_in_port(std::uint16_t in_port);
  bool set_total_len(std::uint16_t total_len);
  bool set_data(std::span<const std::uint8_t> data);

  /// Current views; wire() is byte-identical to ofp::encode(message()).
  const Message& message() const { return message_; }
  const Bytes& wire() const { return wire_; }

  Message emit_message() const { return message_; }
  Bytes emit_wire() const { return wire_; }

 private:
  void discover();

  Message message_;
  Bytes wire_;
  std::optional<std::size_t> xid_off_;
  std::optional<std::size_t> buffer_id_off_;
  std::optional<std::size_t> in_port_off_;
  std::optional<std::size_t> total_len_off_;
  std::optional<std::size_t> data_off_;
  std::size_t data_size_{0};
};

}  // namespace attain::ofp
