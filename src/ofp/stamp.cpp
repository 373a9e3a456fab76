#include "ofp/stamp.hpp"

#include <algorithm>
#include <array>
#include <variant>

#include "ofp/codec.hpp"

namespace attain::ofp {

namespace {

// Probe values whose big-endian encodings differ in every byte (B = ~A), so
// a diff between the two probe encodings exposes the field's full byte span.
constexpr std::array<std::uint8_t, 6> kProbeA = {0x13, 0x24, 0x35, 0x46, 0x57, 0x68};

std::uint64_t probe_value(std::size_t width, bool inverted) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value = (value << 8) | static_cast<std::uint64_t>(inverted ? ~kProbeA[i] & 0xff : kProbeA[i]);
  }
  return value;
}

void store_be(Bytes& wire, std::size_t offset, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    wire[offset + i] = static_cast<std::uint8_t>(value >> (8 * (width - 1 - i)));
  }
}

bool match_be(const Bytes& wire, std::size_t offset, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) {
    if (wire[offset + i] != static_cast<std::uint8_t>(value >> (8 * (width - 1 - i)))) return false;
  }
  return true;
}

std::optional<std::size_t> locate_probe(const Bytes& e1, const Bytes& e2, std::uint64_t a,
                                        std::uint64_t b, std::size_t width) {
  std::optional<std::size_t> found;
  if (e1.size() != e2.size() || e1.size() < width) return std::nullopt;
  for (std::size_t p = 0; p + width <= e1.size(); ++p) {
    if (match_be(e1, p, a, width) && match_be(e2, p, b, width)) {
      if (found) return std::nullopt;  // ambiguous
      found = p;
    }
  }
  return found;
}

/// Applies `set` to a copy of the prototype for each probe value, re-encodes
/// through the full codec, and accepts the offset only when a pure byte
/// patch reproduces the re-encode exactly.
template <typename Setter>
std::optional<std::size_t> discover_field(const Message& prototype, std::size_t wire_size,
                                          Setter set, std::size_t width) {
  const std::uint64_t a = probe_value(width, false);
  const std::uint64_t b = probe_value(width, true);
  Message m1 = prototype;
  Message m2 = prototype;
  if (!set(m1, a) || !set(m2, b)) return std::nullopt;
  const Bytes e1 = encode(m1);
  const Bytes e2 = encode(m2);
  if (e1.size() != wire_size || e2.size() != wire_size) return std::nullopt;
  const std::optional<std::size_t> offset = locate_probe(e1, e2, a, b, width);
  if (!offset) return std::nullopt;
  Bytes candidate = e1;
  store_be(candidate, *offset, b, width);
  if (!std::equal(candidate.begin(), candidate.end(), e2.begin())) return std::nullopt;
  return offset;
}

bool set_buffer_id_field(Message& m, std::uint64_t v) {
  return std::visit(
      [v](auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, PacketIn> || std::is_same_v<T, PacketOut> ||
                      std::is_same_v<T, FlowMod>) {
          body.buffer_id = static_cast<std::uint32_t>(v);
          return true;
        } else {
          return false;
        }
      },
      m.body);
}

bool set_in_port_field(Message& m, std::uint64_t v) {
  return std::visit(
      [v](auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, PacketIn> || std::is_same_v<T, PacketOut>) {
          body.in_port = static_cast<std::uint16_t>(v);
          return true;
        } else {
          return false;
        }
      },
      m.body);
}

bool set_total_len_field(Message& m, std::uint64_t v) {
  if (auto* pin = std::get_if<PacketIn>(&m.body)) {
    pin->total_len = static_cast<std::uint16_t>(v);
    return true;
  }
  return false;
}

/// The trailing raw-data member of the body types that carry one. A typed
/// PACKET_IN/PACKET_OUT frame is materialized to bytes (the template keeps
/// its message and wire in lock step byte for byte).
Bytes* data_field(Message& m) {
  return std::visit(
      [](auto& body) -> Bytes* {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, Error> || std::is_same_v<T, EchoRequest> ||
                      std::is_same_v<T, EchoReply> || std::is_same_v<T, Vendor>) {
          return &body.data;
        } else if constexpr (std::is_same_v<T, PacketIn> || std::is_same_v<T, PacketOut>) {
          return &body.data.mutable_bytes();
        } else {
          return nullptr;
        }
      },
      m.body);
}

void fill_pattern(Bytes& data, bool inverted) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::uint8_t base = kProbeA[i % kProbeA.size()];
    data[i] = inverted ? static_cast<std::uint8_t>(~base) : base;
  }
}

bool match_pattern(const Bytes& wire, std::size_t offset, std::size_t size, bool inverted) {
  for (std::size_t i = 0; i < size; ++i) {
    const std::uint8_t base = kProbeA[i % kProbeA.size()];
    if (wire[offset + i] != (inverted ? static_cast<std::uint8_t>(~base) : base)) return false;
  }
  return true;
}

/// Locates the trailing raw-data region by splicing two full-length probe
/// patterns through the codec and requiring a same-length byte splice to
/// reproduce the re-encode.
std::optional<std::size_t> discover_data(const Message& prototype, std::size_t wire_size,
                                         std::size_t data_size) {
  if (data_size == 0) return std::nullopt;
  Message m1 = prototype;
  Message m2 = prototype;
  fill_pattern(*data_field(m1), false);
  fill_pattern(*data_field(m2), true);
  const Bytes e1 = encode(m1);
  const Bytes e2 = encode(m2);
  if (e1.size() != wire_size || e2.size() != wire_size) return std::nullopt;
  std::optional<std::size_t> found;
  for (std::size_t p = 0; p + data_size <= e1.size(); ++p) {
    if (match_pattern(e1, p, data_size, false) && match_pattern(e2, p, data_size, true)) {
      if (found) return std::nullopt;  // ambiguous
      found = p;
    }
  }
  if (!found) return std::nullopt;
  Bytes candidate = e1;
  for (std::size_t i = 0; i < data_size; ++i) {
    candidate[*found + i] = e2[*found + i];
  }
  if (!std::equal(candidate.begin(), candidate.end(), e2.begin())) return std::nullopt;
  return found;
}

}  // namespace

StampedTemplate::StampedTemplate(Message prototype) : message_(std::move(prototype)) {
  wire_ = encode(message_);
  discover();
}

void StampedTemplate::discover() {
  xid_off_ = discover_field(
      message_, wire_.size(),
      [](Message& m, std::uint64_t v) {
        m.xid = static_cast<std::uint32_t>(v);
        return true;
      },
      4);
  buffer_id_off_ = discover_field(message_, wire_.size(), set_buffer_id_field, 4);
  in_port_off_ = discover_field(message_, wire_.size(), set_in_port_field, 2);
  total_len_off_ = discover_field(message_, wire_.size(), set_total_len_field, 2);
  if (Bytes* data = data_field(message_)) {
    data_size_ = data->size();
    data_off_ = discover_data(message_, wire_.size(), data_size_);
  }
}

bool StampedTemplate::set_xid(std::uint32_t xid) {
  if (!xid_off_) return false;
  message_.xid = xid;
  store_be(wire_, *xid_off_, xid, 4);
  return true;
}

bool StampedTemplate::set_buffer_id(std::uint32_t buffer_id) {
  if (!buffer_id_off_) return false;
  set_buffer_id_field(message_, buffer_id);
  store_be(wire_, *buffer_id_off_, buffer_id, 4);
  return true;
}

bool StampedTemplate::set_in_port(std::uint16_t in_port) {
  if (!in_port_off_) return false;
  set_in_port_field(message_, in_port);
  store_be(wire_, *in_port_off_, in_port, 2);
  return true;
}

bool StampedTemplate::set_total_len(std::uint16_t total_len) {
  if (!total_len_off_) return false;
  set_total_len_field(message_, total_len);
  store_be(wire_, *total_len_off_, total_len, 2);
  return true;
}

bool StampedTemplate::set_data(std::span<const std::uint8_t> data) {
  if (!can_stamp_data(data.size())) return false;
  Bytes* field = data_field(message_);
  field->assign(data.begin(), data.end());
  std::copy(data.begin(), data.end(), wire_.begin() + static_cast<long>(*data_off_));
  return true;
}

}  // namespace attain::ofp
