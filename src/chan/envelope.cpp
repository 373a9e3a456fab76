#include "chan/envelope.hpp"

#include <algorithm>
#include <new>
#include <span>
#include <utility>

#include "common/arena.hpp"
#include "common/log.hpp"

namespace attain::chan {

std::string to_string(Direction direction) {
  return direction == Direction::SwitchToController ? "switch->controller"
                                                    : "controller->switch";
}

Envelope::Envelope(Bytes wire) { store_wire(std::move(wire)); }

Envelope::Envelope(const Envelope& other)
    : message_(other.message_),
      message_stale_(other.message_stale_),
      wire_stale_(other.wire_stale_),
      decode_attempted_(other.decode_attempted_),
      sealed_(other.sealed_) {
  if (other.wire_ != nullptr) {
    void* raw = mem::thread_slab().allocate(sizeof(WireBlock));
    try {
      wire_ = ::new (raw) WireBlock(*other.wire_);
    } catch (...) {
      mem::thread_slab().deallocate(raw, sizeof(WireBlock));
      throw;
    }
  }
}

Envelope::Envelope(Envelope&& other) noexcept
    : message_(std::move(other.message_)),
      wire_(std::exchange(other.wire_, nullptr)),
      message_stale_(other.message_stale_),
      wire_stale_(other.wire_stale_),
      decode_attempted_(other.decode_attempted_),
      sealed_(other.sealed_) {}

Envelope& Envelope::operator=(const Envelope& other) {
  if (this != &other) *this = Envelope(other);
  return *this;
}

Envelope& Envelope::operator=(Envelope&& other) noexcept {
  if (this != &other) {
    release_wire();
    message_ = std::move(other.message_);
    wire_ = std::exchange(other.wire_, nullptr);
    message_stale_ = other.message_stale_;
    wire_stale_ = other.wire_stale_;
    decode_attempted_ = other.decode_attempted_;
    sealed_ = other.sealed_;
  }
  return *this;
}

void Envelope::store_wire(Bytes bytes) const {
  if (wire_ == nullptr) {
    void* raw = mem::thread_slab().allocate(sizeof(WireBlock));
    wire_ = ::new (raw) WireBlock{std::move(bytes), {}};  // nothrow: moves
    return;
  }
  wire_->bytes = std::move(bytes);
}

void Envelope::release_wire() noexcept {
  if (wire_ == nullptr) return;
  wire_->~WireBlock();
  mem::thread_slab().deallocate(wire_, sizeof(WireBlock));
  wire_ = nullptr;
}

void Envelope::ensure_message() const {
  if (message_.has_value() && !message_stale_) return;
  if (wire_ == nullptr || wire_stale_) return;  // empty envelope
  if (decode_attempted_) return;                // sticky failure for this wire
  decode_attempted_ = true;
  try {
    message_ = ofp::decode(wire_->bytes);
    message_stale_ = false;
    wire_->decode_error.clear();
  } catch (const DecodeError& err) {
    message_.reset();
    wire_->decode_error = err.what();
  }
}

const ofp::Message* Envelope::message() const {
  if (sealed_) return nullptr;
  ensure_message();
  if (!message_.has_value() || message_stale_) return nullptr;
  return &*message_;
}

ofp::Message* Envelope::mutable_message() {
  if (sealed_) return nullptr;
  ensure_message();
  if (!message_.has_value() || message_stale_) return nullptr;
  wire_stale_ = true;
  return &*message_;
}

void Envelope::ensure_wire() const {
  if (wire_ != nullptr && !wire_stale_) return;
  if (message_.has_value() && !message_stale_) {
    store_wire(ofp::encode(*message_));
  } else if (wire_ == nullptr) {
    store_wire(Bytes{});
  }
  wire_stale_ = false;
}

std::size_t Envelope::wire_size() const {
  if (!has_wire() && has_message()) return ofp::wire_length(*message_);
  return wire_ != nullptr ? wire_->bytes.size() : 0;
}

const Bytes& Envelope::wire() const {
  ensure_wire();
  return wire_->bytes;
}

Bytes& Envelope::mutable_wire() {
  ensure_wire();
  message_stale_ = true;
  decode_attempted_ = false;
  wire_->decode_error.clear();
  return wire_->bytes;
}

const std::string& Envelope::decode_error() const {
  static const std::string kNone;
  return wire_ != nullptr ? wire_->decode_error : kNone;
}

void report_decode_failure(const Envelope& envelope, const std::string& who,
                           std::uint64_t& decode_errors, const std::string& context) {
  ++decode_errors;
  // Only raw-wire frames fail to decode, so wire() reads bytes the
  // envelope already holds.
  ATTAIN_LOG(Debug, who) << "undecodable control frame"
                         << (context.empty() ? "" : " from " + context) << ": "
                         << envelope.decode_error() << " (header "
                         << to_hex(std::span<const std::uint8_t>(envelope.wire())
                                       .first(std::min(envelope.wire().size(), ofp::kHeaderSize)))
                         << ")";
}

const ofp::Message* ingress_decode(Envelope& envelope, const std::string& who,
                                   std::uint64_t& decode_errors, const std::string& context) {
  return ingress_decode(envelope, who, decode_errors, [&context] { return context; });
}

}  // namespace attain::chan
