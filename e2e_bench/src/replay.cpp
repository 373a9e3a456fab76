#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "attain/lang/program.hpp"
#include "ofp/codec.hpp"
#include "ofp/stamp.hpp"
#include "packet/codec.hpp"
#include "packet/flow_key.hpp"
#include "packet/stamp.hpp"
#include "scenario/enterprise.hpp"
#include "scenario/experiment.hpp"
#include "stats.hpp"
#include "swsim/flow_table.hpp"

namespace e2e {

using namespace attain;

namespace {

constexpr int kSamples = 9;

/// Defeats dead-code elimination of replayed results.
volatile std::uint64_t g_sink = 0;

/// Median over kSamples of the per-call cost of `body(i)`, called `calls`
/// times per sample, in nanoseconds.
template <typename Body>
double per_call_ns(std::size_t calls, Body&& body) {
  std::vector<double> samples;
  body(0);  // warm caches and lazy allocations outside the samples
  for (int s = 0; s < kSamples; ++s) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    const std::chrono::duration<double, std::nano> dt = std::chrono::steady_clock::now() - t0;
    samples.push_back(dt.count() / static_cast<double>(calls));
  }
  return median(std::move(samples));
}

/// The flood generator's spoofed TCP SYN toward the victim (the frame
/// every flood PACKET_IN carries), flow `f`.
pkt::Packet flood_frame(std::uint64_t f) {
  pkt::TcpHeader tcp;
  tcp.src_port = static_cast<std::uint16_t>(40000 + (f & 0x3fff));
  tcp.dst_port = 80;
  tcp.flags = pkt::kTcpSyn;
  return pkt::make_tcp(pkt::MacAddress::from_u64(0x0aad00000000ULL | f),
                       pkt::MacAddress::from_u64(0x0000000007ffULL),
                       pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + f)},
                       pkt::Ipv4Address{0x0a0007ffu}, tcp, /*payload_size=*/0, /*tag=*/0);
}

ofp::Message flood_packet_in(std::uint32_t xid) {
  ofp::PacketIn pin;
  pin.buffer_id = xid;
  pin.in_port = 1;
  pin.data = pkt::encode(flood_frame(xid));
  pin.total_len = static_cast<std::uint16_t>(pin.data.size());
  return ofp::make_message(xid, std::move(pin));
}

ofp::Message sample_flow_mod(std::uint32_t xid) {
  ofp::FlowMod mod;
  mod.match = ofp::Match::from_packet(flood_frame(xid), 1);
  mod.idle_timeout = 10;
  mod.actions = ofp::output_to(std::uint16_t{2});
  return ofp::make_message(xid, std::move(mod));
}

void replay_rule_engine(ReplayMetrics& out) {
  scenario::TestbedOptions options;
  options.controller = scenario::ControllerKind::Pox;
  scenario::Testbed bed(scenario::make_enterprise_model(), options);
  const std::string source = scenario::flow_mod_suppression_dsl();
  out.dsl_compile_us = per_call_ns(20, [&](std::size_t) {
                         g_sink = g_sink + bed.compile_attack(source).states.size();
                       }) / 1e3;

  const dsl::CompiledAttack attack = bed.compile_attack(source);
  std::vector<const dsl::CompiledRule*> rules;
  for (const auto& state : attack.states) {
    for (const auto& rule : state.rules) rules.push_back(&rule);
  }
  const topo::SystemModel& model = bed.model();
  const ConnectionId conn{model.require("c1"), model.require("s1")};
  std::vector<lang::InFlightMessage> mix;
  for (std::uint32_t i = 0; i < 64; ++i) {
    lang::InFlightMessage msg;
    msg.connection = conn;
    const bool pin = (i & 1) == 0;
    msg.direction = pin ? lang::Direction::SwitchToController : lang::Direction::ControllerToSwitch;
    msg.source = pin ? conn.sw : conn.controller;
    msg.destination = pin ? conn.controller : conn.sw;
    msg.timestamp = static_cast<SimTime>(i);
    msg.id = i;
    msg.envelope = chan::Envelope(pin ? flood_packet_in(i) : sample_flow_mod(i));
    mix.push_back(std::move(msg));
  }
  lang::DequeStore storage;
  for (const auto& [name, initial] : attack.deques) storage.declare(name, initial);
  Rng rng{1};
  lang::ProgramEvaluator evaluator;
  out.lang_eval_ns = per_call_ns(mix.size() * 50, [&](std::size_t i) {
    const lang::InFlightMessage& msg = mix[i % mix.size()];
    lang::EvalContext ctx;
    ctx.message = &msg;
    ctx.storage = &storage;
    ctx.rng = &rng;
    for (const dsl::CompiledRule* rule : rules) {
      if (!rule->program.guard().admits(msg)) continue;
      bool match = false;
      if (evaluator.run_bool(rule->program, ctx, match) == lang::ExecStatus::Ok && match) {
        g_sink = g_sink + 1;
      }
    }
  });
}

void replay_codecs(ReplayMetrics& out) {
  const ofp::Message pin = flood_packet_in(7);
  const Bytes wire = ofp::encode(pin);
  out.ofp_encode_ns =
      per_call_ns(20000, [&](std::size_t) { g_sink = g_sink + ofp::encode(pin).size(); });
  out.ofp_decode_ns = per_call_ns(20000, [&](std::size_t) {
    g_sink = g_sink + static_cast<std::uint64_t>(ofp::decode(wire).type());
  });

  ofp::StampedTemplate tpl(pin);
  out.ofp_stamp_ns = per_call_ns(20000, [&](std::size_t i) {
    tpl.set_xid(static_cast<std::uint32_t>(i));
    tpl.set_buffer_id(static_cast<std::uint32_t>(i));
    ofp::Message m = tpl.emit_message();
    Bytes w = tpl.emit_wire();
    g_sink = g_sink + w.size() + m.xid;
  });

  pkt::FrameStamper stamper(flood_frame(0));
  out.packet_stamp_ns = per_call_ns(20000, [&](std::size_t i) {
    stamper.set_src_mac(pkt::MacAddress::from_u64(0x0aad00000000ULL | i));
    stamper.set_src_ip(pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + i)});
    stamper.set_src_port(static_cast<std::uint16_t>(40000 + (i & 0x3fff)));
    pkt::Packet p = stamper.emit_packet();
    Bytes w = stamper.emit_wire();
    g_sink = g_sink + w.size() + p.wire_size();
  });
}

void replay_flow_table(std::size_t entries, ReplayMetrics& out) {
  constexpr std::size_t kBatch = 64;
  swsim::FlowTable table;
  std::vector<pkt::FlowKey> hits;
  std::vector<pkt::FlowKey> misses;
  for (std::size_t i = 0; i < entries; ++i) {
    const pkt::Packet p = flood_frame(i);
    ofp::FlowMod mod;
    mod.match = ofp::Match::from_packet(p, 1);
    mod.command = ofp::FlowModCommand::Add;
    mod.priority = 100;
    mod.actions = ofp::output_to(std::uint16_t{2});
    table.apply(mod, 0);
    hits.push_back(pkt::FlowKey::from_packet(p, 1));
    misses.push_back(pkt::FlowKey::from_packet(flood_frame(entries + i), 1));
  }
  // Every call looks up one full batch of B consecutive keys.
  const std::size_t batch = std::min(kBatch, entries);
  const std::vector<std::size_t> sizes(batch, flood_frame(0).wire_size());
  std::vector<const swsim::FlowEntry*> found(batch);
  auto lookup = [&](const std::vector<pkt::FlowKey>& keys, std::size_t i) {
    std::size_t first = (i * batch) % entries;
    if (first + batch > entries) first = 0;
    table.match_batch(keys.data() + first, sizes.data(), batch, 0, found.data());
    g_sink = g_sink + (found[0] != nullptr);
  };
  const std::size_t calls = 200000 / batch;
  const double keys = static_cast<double>(batch);
  out.match_hit_ns = per_call_ns(calls, [&](std::size_t i) { lookup(hits, i); }) / keys;
  out.match_miss_ns = per_call_ns(calls, [&](std::size_t i) { lookup(misses, i); }) / keys;
}

}  // namespace

ReplayMetrics run_replays(std::size_t match_entries) {
  ReplayMetrics out;
  replay_rule_engine(out);
  replay_codecs(out);
  replay_flow_table(std::max<std::size_t>(1, match_entries), out);
  return out;
}

}  // namespace e2e
