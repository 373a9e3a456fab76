#include "packet/frame.hpp"

#include <algorithm>
#include <stdexcept>

#include "packet/codec.hpp"

namespace attain::pkt {

Frame::Frame(Packet packet, std::size_t cap) : packet_(std::move(packet)), typed_(true) {
  const std::size_t size = std::min(encoded_size(packet_), cap);
  if (size > UINT32_MAX) throw std::length_error("pkt::Frame: captured size exceeds 32 bits");
  size_ = static_cast<std::uint32_t>(size);
}

const Bytes& Frame::bytes() const {
  if (typed_ && bytes_.size() != size_) {
    bytes_ = encode(packet_);
    bytes_.resize(size_);
  }
  return bytes_;
}

Bytes& Frame::mutable_bytes() {
  bytes();
  typed_ = false;
  return bytes_;
}

std::optional<Packet> Frame::packet() const {
  return typed_ ? decode_prefix(packet_, size_) : try_decode(bytes_);
}

}  // namespace attain::pkt
