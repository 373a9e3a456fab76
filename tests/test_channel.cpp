// chan:: pipeline tests: envelope cache coherence (decode-once, lazy
// re-encode, seal/unseal), the fuzzed-corpus round-trip property, the
// shared ingress helper, the proxy sink, the codec-op savings the
// decode-once path buys on the paper's Table II scenario, and the encode-free
// Table II and Fig. 11 cells (typed frames are sized, never encoded).
#include "chan/channel.hpp"

#include <gtest/gtest.h>

#include "ofp/fuzz.hpp"
#include "packet/codec.hpp"
#include "scenario/run.hpp"
#include "swsim/switch.hpp"

namespace attain::chan {
namespace {

ofp::Message sample_flow_mod(std::uint32_t xid = 9) {
  ofp::FlowMod mod;
  mod.match = ofp::Match::wildcard_all();
  mod.idle_timeout = 10;
  mod.actions = ofp::output_to(std::uint16_t{2});
  return ofp::make_message(xid, std::move(mod));
}

/// Codec invocations since `before`.
std::uint64_t ops_since(const ofp::CodecOpCounters& before) {
  return ofp::codec_ops().total() - before.total();
}

// ---------------------------------------------------------------------------
// Envelope cache coherence.
// ---------------------------------------------------------------------------

TEST(Envelope, TypedOriginPaysOneEncodeLazily) {
  Envelope env(sample_flow_mod());
  EXPECT_TRUE(env.has_message());
  EXPECT_FALSE(env.has_wire());

  const auto before = ofp::codec_ops();
  const Bytes& wire = env.wire();
  EXPECT_FALSE(wire.empty());
  EXPECT_EQ(ops_since(before), 1u);  // the encode
  env.wire();
  env.message();
  EXPECT_EQ(ops_since(before), 1u);  // both views now cached
}

TEST(Envelope, WireSizeDoesNotEncode) {
  Envelope env(sample_flow_mod());
  const auto before = ofp::codec_ops();
  EXPECT_EQ(env.wire_size(), ofp::wire_length(sample_flow_mod()));
  EXPECT_EQ(ofp::codec_ops().encodes, before.encodes);
  EXPECT_FALSE(env.has_wire());

  // A mutated message is sized from the edit, still without encoding.
  ofp::Message* message = env.mutable_message();
  ASSERT_NE(message, nullptr);
  message->as<ofp::FlowMod>().actions.push_back(
      ofp::ActionSetDlDst{pkt::MacAddress::from_u64(7)});
  EXPECT_EQ(env.wire_size(), ofp::wire_length(*env.message()));
  EXPECT_EQ(ofp::codec_ops().encodes, before.encodes);
  EXPECT_EQ(env.wire_size(), env.wire().size());  // the lazy encode agrees
}

TEST(Envelope, WireOriginDecodesExactlyOnce) {
  const Bytes frame = ofp::encode(sample_flow_mod());
  Envelope env(frame);
  EXPECT_TRUE(env.has_wire());
  EXPECT_FALSE(env.has_message());

  const auto before = ofp::codec_ops();
  ASSERT_NE(env.message(), nullptr);
  EXPECT_EQ(env.message()->xid, 9u);
  env.message();
  EXPECT_EQ(ops_since(before), 1u);  // the decode, cached afterwards
  EXPECT_EQ(env.wire(), frame);      // original bytes, no re-encode
  EXPECT_EQ(ops_since(before), 1u);
}

TEST(Envelope, EmptyEnvelopeIsInert) {
  Envelope env;
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_TRUE(env.wire().empty());
  EXPECT_FALSE(env.decode_failed());
}

TEST(Envelope, MutatingMessageInvalidatesWire) {
  Envelope env(Bytes(ofp::encode(sample_flow_mod(1))));
  ASSERT_NE(env.message(), nullptr);
  const Bytes before = env.wire();

  env.mutable_message()->xid = 77;
  const Bytes& after = env.wire();
  EXPECT_NE(after, before);
  EXPECT_EQ(ofp::decode(after).xid, 77u);
}

TEST(Envelope, MutatingWireInvalidatesMessage) {
  Envelope env(sample_flow_mod(5));
  ASSERT_NE(env.message(), nullptr);
  env.wire();  // materialize

  // ofp_header xid lives at bytes [4,8).
  env.mutable_wire()[7] = 42;
  ASSERT_NE(env.message(), nullptr);
  EXPECT_EQ(env.message()->xid, 42u);
}

TEST(Envelope, DecodeFailureIsStickyPerWireGeneration) {
  Bytes garbage = ofp::encode(sample_flow_mod());
  garbage[0] = 0x09;  // wrong version
  Envelope env(garbage);

  const auto before = ofp::codec_ops();
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_EQ(ops_since(before), 1u);  // one failed attempt, then cached
  EXPECT_TRUE(env.decode_failed());
  EXPECT_FALSE(env.decode_error().empty());
  EXPECT_EQ(env.wire(), garbage);  // undecodable bytes pass through intact

  // A new wire generation retries the decode.
  env.mutable_wire()[0] = 0x01;
  EXPECT_NE(env.message(), nullptr);
  EXPECT_FALSE(env.decode_failed());
}

TEST(Envelope, CopiesDeepCopyWireBytesAndDecodeError) {
  Bytes garbage = ofp::encode(sample_flow_mod());
  garbage[0] = 0x09;  // wrong version
  Envelope bad(garbage);
  ASSERT_EQ(bad.message(), nullptr);
  ASSERT_FALSE(bad.decode_error().empty());

  Envelope copy(bad);
  EXPECT_TRUE(copy.decode_failed());
  EXPECT_EQ(copy.decode_error(), bad.decode_error());
  EXPECT_TRUE(copy.has_wire());
  EXPECT_EQ(copy.wire(), garbage);
  EXPECT_NE(&copy.wire(), &bad.wire());  // its own bytes, not a shared block

  // Editing the copy leaves the original's bytes and error intact.
  copy.mutable_wire()[0] = 0x01;
  EXPECT_NE(copy.message(), nullptr);
  EXPECT_TRUE(copy.decode_error().empty());
  EXPECT_EQ(bad.wire(), garbage);
  EXPECT_TRUE(bad.decode_failed());
  EXPECT_FALSE(bad.decode_error().empty());

  // Copy-assignment over an envelope with both views, then self-assignment.
  Envelope both(sample_flow_mod(3));
  both.wire();
  both = bad;
  EXPECT_TRUE(both.decode_failed());
  EXPECT_EQ(both.wire(), garbage);
  const Envelope& alias = both;
  both = alias;
  EXPECT_EQ(both.wire(), garbage);
  EXPECT_EQ(both.decode_error(), bad.decode_error());

  // A copy of a decoded wire envelope keeps both views current: no codec call.
  Envelope good(ofp::encode(sample_flow_mod(4)));
  ASSERT_NE(good.message(), nullptr);
  const auto before = ofp::codec_ops();
  const Envelope good_copy = good;
  EXPECT_TRUE(good_copy.has_message());
  EXPECT_TRUE(good_copy.has_wire());
  EXPECT_EQ(good_copy.message()->xid, 4u);
  EXPECT_EQ(good_copy.wire(), good.wire());
  EXPECT_EQ(ops_since(before), 0u);

  // A move takes the block; the source is left without wire bytes.
  Envelope moved(std::move(copy));
  EXPECT_TRUE(moved.has_wire());
  EXPECT_FALSE(copy.has_wire());  // NOLINT(bugprone-use-after-move)
}

TEST(Envelope, SealHidesMessageWithoutDiscardingCache) {
  Envelope env(sample_flow_mod());
  ASSERT_NE(env.message(), nullptr);
  env.wire();  // both views cached

  env.seal();
  EXPECT_EQ(env.message(), nullptr);
  EXPECT_EQ(env.mutable_message(), nullptr);
  EXPECT_FALSE(env.wire().empty());  // ciphertext-sized frame stays visible

  const auto before = ofp::codec_ops();
  env.unseal();
  ASSERT_NE(env.message(), nullptr);
  EXPECT_EQ(ops_since(before), 0u);  // cache survived the seal
}

// ---------------------------------------------------------------------------
// Fuzzed-corpus round-trip property: decode -> mutate -> lazy re-encode
// matches a direct ofp::encode of the mutated message, and an unmutated
// envelope always returns its original bytes.
// ---------------------------------------------------------------------------

TEST(Envelope, FuzzedCorpusRoundTripProperty) {
  Rng rng(0xc0ffee);
  std::vector<Bytes> corpus;
  corpus.push_back(ofp::encode(ofp::make_message(1, ofp::Hello{})));
  corpus.push_back(ofp::encode(ofp::make_message(2, ofp::EchoRequest{{1, 2, 3}})));
  corpus.push_back(ofp::encode(ofp::make_message(3, ofp::BarrierRequest{})));
  corpus.push_back(ofp::encode(sample_flow_mod(4)));
  ofp::PacketOut out;
  out.in_port = 1;
  out.actions = ofp::output_to(std::uint16_t{3});
  corpus.push_back(ofp::encode(ofp::make_message(5, std::move(out))));
  // Fuzzed variants: some decode, some do not — both paths must hold.
  const std::size_t pristine = corpus.size();
  for (std::size_t i = 0; i < pristine; ++i) {
    for (int round = 0; round < 8; ++round) {
      Bytes mutated = corpus[i];
      ofp::FuzzOptions options;
      options.bit_flips = 1 + static_cast<unsigned>(round);
      options.preserve_header = (round % 2) == 0;
      ofp::fuzz_frame(mutated, rng, options);
      corpus.push_back(std::move(mutated));
    }
  }

  std::size_t decodable = 0;
  for (const Bytes& frame : corpus) {
    // Unmutated envelope: wire() must return the original bytes whether or
    // not the frame decodes.
    Envelope untouched(frame);
    untouched.message();
    EXPECT_EQ(untouched.wire(), frame);

    Envelope env(frame);
    if (env.message() == nullptr) {
      EXPECT_TRUE(env.decode_failed());
      continue;
    }
    ++decodable;
    env.mutable_message()->xid += 1000;
    EXPECT_EQ(env.wire(), ofp::encode(*env.message()));
  }
  EXPECT_GE(decodable, pristine);  // at least every pristine frame decodes
}

// ---------------------------------------------------------------------------
// Shared endpoint-ingress helper.
// ---------------------------------------------------------------------------

TEST(IngressDecode, ReturnsMessageAndLeavesCounterAlone) {
  Envelope env(sample_flow_mod());
  std::uint64_t errors = 0;
  const ofp::Message* msg = ingress_decode(env, "test", errors);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->type(), ofp::MsgType::FlowMod);
  EXPECT_EQ(errors, 0u);
}

TEST(IngressDecode, CountsAndReportsUndecodableFrames) {
  Bytes garbage = ofp::encode(sample_flow_mod());
  garbage[0] = 0x09;
  Envelope env(std::move(garbage));
  std::uint64_t errors = 0;
  EXPECT_EQ(ingress_decode(env, "test", errors, "conn 3"), nullptr);
  EXPECT_EQ(errors, 1u);
}

TEST(IngressDecode, UnsealsBeforeDecoding) {
  Envelope env(sample_flow_mod());
  env.wire();
  env.seal();
  std::uint64_t errors = 0;
  EXPECT_NE(ingress_decode(env, "test", errors), nullptr);
  EXPECT_EQ(errors, 0u);
}

TEST(IngressDecode, SwitchStillAnswersGarbageWithBadRequest) {
  // The deduped helper must preserve the switch's error-reply behavior.
  sim::Scheduler sched;
  swsim::SwitchConfig config;
  config.name = "s1";
  swsim::OpenFlowSwitch sw(sched, config);
  std::vector<ofp::Message> replies;
  sw.set_control_sender([&](Envelope e) {
    ASSERT_NE(e.message(), nullptr);
    replies.push_back(*e.message());
  });

  Bytes garbage = ofp::encode(ofp::make_message(1, ofp::BarrierRequest{}));
  garbage[0] = 0x09;
  sw.on_control_envelope(Envelope(std::move(garbage)));
  ASSERT_EQ(replies.size(), 1u);
  ASSERT_EQ(replies[0].type(), ofp::MsgType::Error);
  EXPECT_EQ(replies[0].as<ofp::Error>().type, ofp::ErrorType::BadRequest);
  EXPECT_EQ(sw.counters().decode_errors, 1u);
}

// ---------------------------------------------------------------------------
// Channel: transparency, the proxy sink, counters.
// ---------------------------------------------------------------------------

TEST(Channel, StagelessChannelIsTransparentBothWays) {
  sim::Scheduler sched;
  Channel channel(sched, {});
  std::vector<std::uint32_t> at_controller;
  std::vector<std::uint32_t> at_switch;
  channel.set_controller_sink([&](Envelope e) { at_controller.push_back(e.message()->xid); });
  channel.set_switch_sink([&](Envelope e) { at_switch.push_back(e.message()->xid); });

  channel.switch_sender()(Envelope(ofp::make_message(1, ofp::Hello{})));
  channel.controller_sender()(Envelope(ofp::make_message(2, ofp::Hello{})));
  sched.run_until(kSecond);

  EXPECT_EQ(at_controller, std::vector<std::uint32_t>{1});
  EXPECT_EQ(at_switch, std::vector<std::uint32_t>{2});
  EXPECT_EQ(channel.counters(Direction::SwitchToController).frames, 1u);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).forwarded, 1u);
  EXPECT_EQ(channel.counters(Direction::ControllerToSwitch).frames, 1u);
  EXPECT_EQ(channel.totals().frames, 2u);
  EXPECT_EQ(channel.totals().decode_errors, 0u);
}

TEST(Channel, FrameArrivalIsDelayedByBothPipeHops) {
  sim::Scheduler sched;
  ChannelConfig config;
  config.segment = sim::PipeConfig{1'000'000'000, 150 * kMicrosecond, 0};
  Channel channel(sched, config);
  SimTime delivered_at = -1;
  channel.set_controller_sink([&](Envelope) { delivered_at = sched.now(); });

  channel.send_from_switch(Envelope(ofp::make_message(1, ofp::Hello{})));
  sched.run_until(kSecond);
  // Two hops, each 150 us propagation plus serialization.
  EXPECT_GE(delivered_at, 300 * kMicrosecond);
  EXPECT_LT(delivered_at, 310 * kMicrosecond);
}

TEST(Channel, ConsumingStageSuppressesDelivery) {
  sim::Scheduler sched;
  Channel channel(sched, {});
  // Consumes every frame (never forwards).
  channel.set_proxy_sink([&](Direction direction, Envelope) { channel.note_suppressed(direction); });
  std::size_t delivered = 0;
  channel.set_controller_sink([&](Envelope) { ++delivered; });

  channel.send_from_switch(Envelope(ofp::make_message(1, ofp::Hello{})));
  sched.run_until(kSecond);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).suppressed, 1u);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).forwarded, 0u);
}

TEST(Channel, TlsSealsAtProxyAndUnsealsAtDelivery) {
  sim::Scheduler sched;
  ChannelConfig config;
  config.tls = true;
  Channel channel(sched, config);
  bool proxy_saw_plaintext = true;
  channel.set_proxy_sink([&](Direction direction, Envelope envelope) {
    proxy_saw_plaintext = envelope.message() != nullptr;
    channel.forward(direction, std::move(envelope));
  });
  std::size_t readable_deliveries = 0;
  channel.set_controller_sink([&](Envelope e) {
    if (e.message() != nullptr && !e.sealed()) ++readable_deliveries;
  });

  channel.send_from_switch(Envelope(ofp::make_message(1, ofp::Hello{})));
  sched.run_until(kSecond);
  EXPECT_FALSE(proxy_saw_plaintext);  // ciphertext at the proxy point
  EXPECT_EQ(readable_deliveries, 1u);  // plaintext at the endpoint
}

TEST(Channel, UndecodableFrameCountsAndPassesThrough) {
  sim::Scheduler sched;
  Channel channel(sched, {});
  Bytes garbage = ofp::encode(ofp::make_message(1, ofp::Hello{}));
  garbage[0] = 0x09;
  std::size_t delivered = 0;
  Bytes delivered_wire;
  channel.set_controller_sink([&](Envelope e) {
    ++delivered;
    delivered_wire = e.wire();
  });

  channel.send_from_switch(Envelope(garbage));
  sched.run_until(kSecond);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(delivered_wire, garbage);
  EXPECT_EQ(channel.counters(Direction::SwitchToController).decode_errors, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end codec savings on the Table II enterprise scenario: on every
// cell of table2_grid() the decode-once path must cut encode+decode
// invocations by >= 40% relative to the byte pipeline's per-frame encode +
// proxy decode + endpoint decode.
// ---------------------------------------------------------------------------

TEST(Channel, DecodeOnceSavesAtLeast40PercentOnTable2Cell) {
  for (const scenario::RunSpec& spec : scenario::table2_grid()) {
    ofp::codec_ops() = {};
    const scenario::RunResultPtr result = scenario::run(spec);
    const std::uint64_t actual = ofp::codec_ops().total();

    ASSERT_GT(result->messages_interposed, 0u) << spec.id();
    EXPECT_GT(result->codec_ops_saved, 0u) << spec.id();
    // The byte pipeline's cost on the same run is the ops we paid plus the
    // ops the envelope cache skipped.
    const std::uint64_t baseline = actual + result->codec_ops_saved;
    EXPECT_GE(static_cast<double>(result->codec_ops_saved),
              0.4 * static_cast<double>(baseline))
        << spec.id() << ": actual=" << actual << " saved=" << result->codec_ops_saved;

    // New result fields serialize deterministically.
    const std::string json = result->to_json();
    EXPECT_NE(json.find("\"control_channel\":{\"messages_interposed\":"), std::string::npos);
    EXPECT_EQ(json, scenario::run(spec)->to_json()) << spec.id();
  }
}

// Neither codec runs in these cells: no control frame is encoded, and the
// frames inside PACKET_IN / PACKET_OUT travel typed too — the switch builds
// them from the missed packet, the controllers read their view, and no cell
// serializes or parses a data-plane packet.
TEST(Channel, Table2AndFig11CellsNeverEncode) {
  std::vector<scenario::RunSpec> grid = scenario::table2_grid();
  for (scenario::RunSpec& spec : scenario::fig11_grid()) grid.push_back(std::move(spec));
  for (const scenario::RunSpec& spec : grid) {
    ofp::codec_ops() = {};
    pkt::codec_ops() = {};
    const scenario::RunResultPtr result = scenario::run(spec);
    ASSERT_GT(result->messages_interposed, 0u) << spec.id();
    EXPECT_EQ(ofp::codec_ops().encodes, 0u) << spec.id();
    EXPECT_EQ(pkt::codec_ops().encodes, 0u) << spec.id();
    EXPECT_EQ(pkt::codec_ops().decodes, 0u) << spec.id();
  }
}

}  // namespace
}  // namespace attain::chan
