// FUZZMESSAGE support (paper Table I): random, possibly semantically
// invalid mutation of a message's wire bytes. The proxy fuzzes the encoded
// frame, preserving the header length field so the frame still parses as a
// frame (the receiver may then reject the body, which is the point).
#pragma once

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "ofp/messages.hpp"

namespace attain::ofp {

struct FuzzOptions {
  /// Number of random bit flips applied to the frame.
  unsigned bit_flips{8};
  /// Keep the 8-byte ofp_header intact so framing survives; matches the
  /// paper's TLS model where an attacker without READMESSAGE can still
  /// corrupt ciphertext payloads but not forge valid headers.
  bool preserve_header{true};
};

/// Flips random bits of `frame` in place.
void fuzz_frame(Bytes& frame, Rng& rng, const FuzzOptions& options = {});

}  // namespace attain::ofp
