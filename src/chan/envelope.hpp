// Decode-once control-channel envelopes. An Envelope carries one OpenFlow
// frame in whichever representation it currently has — the decoded
// ofp::Message, the wire bytes, or both — and materializes the missing view
// lazily, caching the result. The byte pipeline it replaces paid a full
// encode at the switch, a decode at the injector proxy, and another decode
// at the controller for every interposed frame; an envelope built from a
// typed message pays no codec call on the happy path. Its wire_size() is
// computed from the message (ofp::wire_length), and the bytes are encoded
// only when something reads them: the fuzz modifier, a raw-byte read, a
// test.
//
// Cache coherence: mutable_message() marks the wire bytes stale (they are
// re-encoded from the mutated message on the next wire() call) and
// mutable_wire() marks the decoded view stale (re-decoded on the next
// message() call) — so a modifier edit or a fuzzer bit-flip can never leak
// a mismatched view.
//
// TLS is modelled by seal(): a sealed envelope answers message() with
// nullptr (an interposer cannot parse ciphertext) while wire() — the
// ciphertext-sized frame — stays readable; the receiving endpoint unseal()s
// and recovers the cached decoded view without a codec call.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>

#include "common/bytes.hpp"
#include "ofp/codec.hpp"
#include "ofp/messages.hpp"

namespace attain::chan {

/// Which way a control-plane frame travels on its connection.
enum class Direction : std::uint8_t { SwitchToController, ControllerToSwitch };

std::string to_string(Direction direction);

class Envelope {
 public:
  Envelope() = default;
  /// Raw-wire ingress (e.g. from a socket or a fuzzed frame); the decoded
  /// view materializes on the first message() call.
  Envelope(Bytes wire);
  /// Typed origin (an endpoint composing a message); the wire bytes
  /// materialize on the first wire() call.
  Envelope(ofp::Message message) : message_(std::move(message)) {}

  /// Copies deep-copy the wire block; moves steal it.
  Envelope(const Envelope& other);
  Envelope(Envelope&& other) noexcept;
  Envelope& operator=(const Envelope& other);
  Envelope& operator=(Envelope&& other) noexcept;
  ~Envelope() { release_wire(); }

  static Envelope from_wire(Bytes wire) { return Envelope(std::move(wire)); }
  static Envelope from_message(ofp::Message message) { return Envelope(std::move(message)); }

  /// The decoded view: cached after the first call. Returns nullptr while
  /// sealed, when the envelope is empty, or when the wire bytes do not
  /// parse (see decode_error()).
  const ofp::Message* message() const;
  /// Mutable decoded view for modifiers; marks the wire bytes stale so the
  /// next wire() re-encodes. Returns nullptr exactly when message() would.
  ofp::Message* mutable_message();

  /// The wire bytes: cached after the first call (encoded on demand from
  /// the decoded view). An empty envelope yields empty bytes.
  const Bytes& wire() const;
  /// Mutable wire bytes for fuzzing; materializes them first and marks the
  /// decoded view stale so the next message() re-decodes.
  Bytes& mutable_wire();
  /// wire().size() without materializing the bytes: computed from the
  /// decoded view while the wire is not cached (no codec call).
  std::size_t wire_size() const;

  /// TLS opacity: while sealed, message()/mutable_message() return nullptr.
  /// The cached decoded view is hidden, not destroyed — unseal() restores
  /// it without a codec call.
  void seal() { sealed_ = true; }
  void unseal() { sealed_ = false; }
  bool sealed() const { return sealed_; }

  /// True when the decoded view is cached and current (a message() call
  /// would not invoke the codec). Sealing does not clear this.
  bool has_message() const { return message_.has_value() && !message_stale_; }
  /// True when the wire bytes are cached and current.
  bool has_wire() const { return wire_ != nullptr && !wire_stale_; }
  /// True when the current wire bytes were tried and failed to decode.
  /// Reset when the wire changes.
  bool decode_failed() const { return decode_attempted_ && !message_.has_value(); }
  /// The DecodeError text of the last failed decode attempt.
  const std::string& decode_error() const;

 private:
  /// The cold fields, out of line: the wire bytes and the text of a failed
  /// decode (which only wire bytes can produce). Allocated from the thread
  /// slab the first time wire bytes exist — a raw-wire origin, an encode,
  /// a fuzz edit — so a typed envelope never carries one.
  struct WireBlock {
    Bytes bytes;
    std::string decode_error;
  };

  void ensure_message() const;
  void ensure_wire() const;
  /// Stores `bytes` as the wire, allocating the block if there is none.
  void store_wire(Bytes bytes) const;
  void release_wire() noexcept;

  // Lazy caches: logically const, mutated on first access. Envelopes live
  // on one scheduler thread (a cell is single-threaded by construction),
  // so no synchronization is needed.
  mutable std::optional<ofp::Message> message_;
  mutable WireBlock* wire_{nullptr};   // null: no wire bytes yet
  mutable bool message_stale_{false};  // wire mutated since message_ was derived
  mutable bool wire_stale_{false};     // message mutated since wire_ was derived
  mutable bool decode_attempted_{false};
  bool sealed_{false};
};

/// A typed destination for envelopes: endpoint delivery, channel ingress,
/// and injector side-inputs all share this shape. The sink takes the
/// envelope by rvalue reference and may move from it.
using EnvelopeSink = std::function<void(Envelope&&)>;

/// The failure half of ingress_decode(): bumps `decode_errors` and logs a
/// Debug line as "<who>", annotated with `context` when it is not empty.
void report_decode_failure(const Envelope& envelope, const std::string& who,
                           std::uint64_t& decode_errors, const std::string& context);

/// Shared endpoint-ingress step (the switch and the controller used to
/// carry copy-pasted decode-catch-log loops): unseals the envelope and
/// returns the decoded view, or nullptr after report_decode_failure().
/// `context` annotates the log line (e.g. "conn 3"). The switch's
/// BadRequest error reply stays at its call site.
const ofp::Message* ingress_decode(Envelope& envelope, const std::string& who,
                                   std::uint64_t& decode_errors,
                                   const std::string& context = {});

/// ingress_decode() with the context built by `make_context()` only on a
/// decode failure, so a per-message caller builds no string.
template <typename MakeContext>
  requires std::is_invocable_r_v<std::string, MakeContext&>
const ofp::Message* ingress_decode(Envelope& envelope, const std::string& who,
                                   std::uint64_t& decode_errors, MakeContext&& make_context) {
  envelope.unseal();
  const ofp::Message* message = envelope.message();
  if (message == nullptr) report_decode_failure(envelope, who, decode_errors, make_context());
  return message;
}

}  // namespace attain::chan
