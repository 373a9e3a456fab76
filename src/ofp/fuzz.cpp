#include "ofp/fuzz.hpp"

#include "ofp/codec.hpp"

namespace attain::ofp {

void fuzz_frame(Bytes& frame, Rng& rng, const FuzzOptions& options) {
  const std::size_t start = options.preserve_header ? kHeaderSize : 0;
  if (frame.size() <= start) return;
  const std::size_t mutable_bits = (frame.size() - start) * 8;
  for (unsigned i = 0; i < options.bit_flips; ++i) {
    const std::size_t bit = static_cast<std::size_t>(rng.next_below(mutable_bits));
    frame[start + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

}  // namespace attain::ofp
