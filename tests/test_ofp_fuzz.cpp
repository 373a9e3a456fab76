#include "ofp/fuzz.hpp"

#include <gtest/gtest.h>

#include "ofp/codec.hpp"

namespace attain::ofp {
namespace {

Message sample() {
  FlowMod mod;
  mod.match = Match::wildcard_all();
  mod.actions = output_to(std::uint16_t{2});
  return make_message(7, std::move(mod));
}

TEST(Fuzz, PreservesHeaderByDefault) {
  Bytes frame = encode(sample());
  const Bytes original = frame;
  Rng rng(1);
  fuzz_frame(frame, rng);
  ASSERT_EQ(frame.size(), original.size());
  for (std::size_t i = 0; i < kHeaderSize; ++i) {
    EXPECT_EQ(frame[i], original[i]) << "header byte " << i << " mutated";
  }
  EXPECT_NE(frame, original);
}

TEST(Fuzz, FlipsRequestedNumberOfBitsAtMost) {
  Bytes frame = encode(sample());
  const Bytes original = frame;
  Rng rng(2);
  FuzzOptions options;
  options.bit_flips = 3;
  fuzz_frame(frame, rng, options);
  unsigned differing_bits = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    differing_bits += static_cast<unsigned>(__builtin_popcount(frame[i] ^ original[i]));
  }
  EXPECT_LE(differing_bits, 3u);  // same bit may flip twice
  EXPECT_GE(differing_bits, 1u);
}

TEST(Fuzz, DeterministicForSeed) {
  Bytes a = encode(sample());
  Bytes b = a;
  Rng rng_a(99);
  Rng rng_b(99);
  fuzz_frame(a, rng_a);
  fuzz_frame(b, rng_b);
  EXPECT_EQ(a, b);
}

TEST(Fuzz, HeaderMutationAllowedWhenRequested) {
  // With preserve_header off, eventually a header byte changes.
  Rng rng(5);
  FuzzOptions options;
  options.preserve_header = false;
  options.bit_flips = 4;
  bool header_changed = false;
  for (int i = 0; i < 50 && !header_changed; ++i) {
    Bytes frame = encode(sample());
    const Bytes original = frame;
    fuzz_frame(frame, rng, options);
    for (std::size_t b = 0; b < kHeaderSize; ++b) {
      if (frame[b] != original[b]) header_changed = true;
    }
  }
  EXPECT_TRUE(header_changed);
}

/// Property: the decoder must never crash (only throw DecodeError) on any
/// random mutation of any representative frame — the switch and controller
/// rely on this when the injector fuzzes payloads.
TEST(Fuzz, DecoderTotalOnRandomMutations) {
  Rng rng(1234);
  const Message messages[] = {
      sample(),
      make_message(1, PacketIn{}),
      make_message(2, EchoRequest{{1, 2, 3, 4}}),
      make_message(3, StatsRequest{0, DescStatsRequest{}}),
      make_message(4, FeaturesReply{}),
  };
  for (const Message& m : messages) {
    for (int i = 0; i < 500; ++i) {
      Bytes frame = encode(m);
      FuzzOptions options;
      options.preserve_header = false;
      options.bit_flips = 1 + static_cast<unsigned>(rng.next_below(16));
      fuzz_frame(frame, rng, options);
      try {
        const Message out = decode(frame);
        (void)out;
      } catch (const DecodeError&) {
        // acceptable: malformed input rejected cleanly
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, EmptyBodyFrameUntouched) {
  Bytes frame = encode(make_message(1, Hello{}));  // 8-byte header only
  const Bytes original = frame;
  Rng rng(8);
  fuzz_frame(frame, rng);  // nothing mutable beyond the header
  EXPECT_EQ(frame, original);
}

}  // namespace
}  // namespace attain::ofp
