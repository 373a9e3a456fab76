// E7 — per-message interposition cost of the runtime injector: OpenFlow
// codec throughput (decode/encode, the unavoidable proxy work) and full
// proxy traversal with the injector disarmed, with the trivial pass-all
// attack, and with the Fig. 10 suppression attack armed.
//
// Two modes:
//   (default)        google-benchmark microbenchmarks, as before.
//   --json <path>    the rule-engine harness: a Table II-style rule set is
//                    evaluated over a representative control-channel mix,
//                    compiled programs vs the tree-walking oracle, and a
//                    bench_json.hpp wrapper document is written with
//                    per-message timings, rules/sec, guard skip rate, and
//                    the steady-state allocation count of the compiled
//                    path (expected: 0; the binary links
//                    common/alloc_hook.cpp for the count). An interpose
//                    leg runs the same mix through
//                    RuntimeInjector::on_envelope with counting sinks and
//                    records interpose_per_message_ns and the thread-slab
//                    allocations of its timed loop (record-only).
//                    tools/bench_baseline.py gates the *_seconds
//                    metrics against the committed BENCH_injector.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "attain/dsl/parser.hpp"
#include "attain/inject/proxy.hpp"
#include "bench_json.hpp"
#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "ofp/codec.hpp"
#include "packet/codec.hpp"
#include "scenario/enterprise.hpp"

using namespace attain;

namespace {

ofp::Message sample_flow_mod() {
  ofp::FlowMod mod;
  mod.match = ofp::Match::wildcard_all();
  mod.match.nw_src = pkt::Ipv4Address::parse("10.0.0.2");
  mod.match.set_nw_src_wild_bits(0);
  mod.idle_timeout = 10;
  mod.actions = ofp::output_to(std::uint16_t{2});
  return ofp::make_message(7, std::move(mod));
}

ofp::Message sample_packet_in() {
  ofp::PacketIn pin;
  pin.buffer_id = 3;
  pin.in_port = 1;
  pin.data = pkt::encode(pkt::make_icmp_echo(
      pkt::MacAddress::from_u64(1), pkt::MacAddress::from_u64(6),
      pkt::Ipv4Address::parse("10.0.0.1"), pkt::Ipv4Address::parse("10.0.0.6"),
      pkt::IcmpType::EchoRequest, 1, 1, 0));
  pin.total_len = static_cast<std::uint16_t>(pin.data.size());
  return ofp::make_message(8, std::move(pin));
}

void BM_CodecEncode(benchmark::State& state) {
  const ofp::Message msg = sample_flow_mod();
  for (auto _ : state) {
    Bytes wire = ofp::encode(msg);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_CodecEncode);

void BM_CodecDecode(benchmark::State& state) {
  const Bytes wire = ofp::encode(sample_packet_in());
  for (auto _ : state) {
    ofp::Message msg = ofp::decode(wire);
    benchmark::DoNotOptimize(msg);
  }
}
BENCHMARK(BM_CodecDecode);

void BM_CodecRoundTrip(benchmark::State& state) {
  const Bytes wire = ofp::encode(sample_flow_mod());
  for (auto _ : state) {
    Bytes out = ofp::encode(ofp::decode(wire));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CodecRoundTrip);

struct ProxyFixture {
  sim::Scheduler sched;
  topo::SystemModel model = scenario::make_enterprise_model();
  monitor::Monitor monitor;
  inject::RuntimeInjector injector{sched, model, monitor};
  chan::EnvelopeSink input;
  std::size_t delivered{0};
  std::vector<std::unique_ptr<std::pair<dsl::CompiledAttack, model::CapabilityMap>>> armed;

  ProxyFixture() {
    monitor.set_counters_only(true);
    const ConnectionId conn{model.require("c1"), model.require("s1")};
    injector.attach_connection(conn, [this](chan::Envelope) { ++delivered; },
                               [this](chan::Envelope) { ++delivered; });
    input = injector.controller_side_input(conn);
  }

  void arm(const std::string& source) {
    const dsl::Document doc = dsl::parse_document(source, model);
    auto holder = std::make_unique<std::pair<dsl::CompiledAttack, model::CapabilityMap>>();
    holder->second = doc.capabilities;
    holder->first = dsl::compile(doc.attacks.at(0), model, holder->second);
    injector.arm(holder->first, holder->second);
    armed.push_back(std::move(holder));
  }
};

void BM_ProxyDisarmed(benchmark::State& state) {
  ProxyFixture fx;
  const Bytes wire = ofp::encode(sample_flow_mod());
  for (auto _ : state) {
    fx.input(wire);
  }
  benchmark::DoNotOptimize(fx.delivered);
}
BENCHMARK(BM_ProxyDisarmed);

void BM_ProxyTrivialAttack(benchmark::State& state) {
  ProxyFixture fx;
  fx.arm(scenario::trivial_pass_all_dsl());
  const Bytes wire = ofp::encode(sample_flow_mod());
  for (auto _ : state) {
    fx.input(wire);
  }
}
BENCHMARK(BM_ProxyTrivialAttack);

void BM_ProxySuppressionMatch(benchmark::State& state) {
  // Worst interesting case: the rule matches and drops every message.
  ProxyFixture fx;
  fx.arm(scenario::flow_mod_suppression_dsl());
  const Bytes wire = ofp::encode(sample_flow_mod());
  for (auto _ : state) {
    fx.input(wire);
  }
}
BENCHMARK(BM_ProxySuppressionMatch);

void BM_ProxySuppressionMiss(benchmark::State& state) {
  // Conditional evaluated but false (ECHO under the suppression attack).
  ProxyFixture fx;
  fx.arm(scenario::flow_mod_suppression_dsl());
  const Bytes wire = ofp::encode(ofp::make_message(2, ofp::EchoRequest{}));
  for (auto _ : state) {
    fx.input(wire);
  }
}
BENCHMARK(BM_ProxySuppressionMiss);

void BM_DataPlanePacketCodec(benchmark::State& state) {
  const pkt::Packet packet = pkt::make_icmp_echo(
      pkt::MacAddress::from_u64(1), pkt::MacAddress::from_u64(6),
      pkt::Ipv4Address::parse("10.0.0.1"), pkt::Ipv4Address::parse("10.0.0.6"),
      pkt::IcmpType::EchoRequest, 1, 1, 0);
  for (auto _ : state) {
    pkt::Packet out = pkt::decode(pkt::encode(packet));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DataPlanePacketCodec);

// ---------------------------------------------------------------------------
// --json harness: compiled programs vs the tree-walking oracle.
// ---------------------------------------------------------------------------

/// A Table II-style rule set: type tests, field-leading comparisons (the
/// throw-per-message steady state of the oracle), a match-field set test,
/// and one rule that matches the ECHO traffic.
std::string harness_rules_dsl() {
  return R"(
attacker { on (c1, s1) grant no_tls; }
attack harness {
  start state s {
    rule r_flowmod on (c1, s1) {
      when msg.type == FLOW_MOD and msg.field("match.nw_src") == ip(h2);
      do { pass(msg); }
    }
    rule r_buffer on (c1, s1) { when msg.field("buffer_id") == 424242; do { pass(msg); } }
    rule r_dst on (c1, s1) {
      when msg.field("match.nw_dst") in { ip(h3), ip(h4) };
      do { pass(msg); }
    }
    rule r_pktin on (c1, s1) {
      when msg.type == PACKET_IN and msg.field("in_port") == 99;
      do { pass(msg); }
    }
    rule r_echo on (c1, s1) { when msg.type == ECHO_REQUEST and msg.length >= 0; do { pass(msg); } }
  }
}
)";
}

/// A representative control-channel mix: mostly echoes, some FLOW_MODs and
/// PACKET_INs, a few PORT_STATUS frames (where "buffer_id" is absent).
std::vector<lang::InFlightMessage> harness_mix(const topo::SystemModel& model,
                                               std::size_t count) {
  const ConnectionId conn{model.require("c1"), model.require("s1")};
  std::vector<lang::InFlightMessage> mix;
  mix.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ofp::Message payload = [&]() -> ofp::Message {
      switch (i % 20) {
        case 3:
        case 11:
        case 17:
          return sample_flow_mod();
        case 7:
        case 13:
          return sample_packet_in();
        case 19: {
          ofp::PortStatus status;
          status.desc.port_no = 2;
          return ofp::make_message(static_cast<std::uint32_t>(i), std::move(status));
        }
        default:
          return ofp::make_message(static_cast<std::uint32_t>(i), ofp::EchoRequest{});
      }
    }();
    lang::InFlightMessage msg;
    msg.connection = conn;
    msg.direction = lang::Direction::ControllerToSwitch;
    msg.source = conn.controller;
    msg.destination = conn.sw;
    msg.timestamp = static_cast<SimTime>(i);
    msg.id = i;
    msg.envelope = chan::Envelope(payload);
    mix.push_back(std::move(msg));
  }
  return mix;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

int run_harness(const std::string& json_path) {
  if (!memhook::installed()) {
    std::fprintf(stderr, "bench_injector_overhead must link common/alloc_hook.cpp\n");
    return 1;
  }
  const topo::SystemModel model = scenario::make_enterprise_model();
  const dsl::Document doc = dsl::parse_document(harness_rules_dsl(), model);
  const dsl::CompiledAttack attack = dsl::compile(doc.attacks.at(0), model, doc.capabilities);

  constexpr std::size_t kMessages = 512;
  constexpr std::size_t kEvalPasses = 40;
  constexpr std::size_t kProcPasses = 40;
  const std::vector<lang::InFlightMessage> mix = harness_mix(model, kMessages);

  // --- Evaluation core: every rule's conditional against every message. ---
  lang::DequeStore storage;
  for (const auto& [name, initial] : attack.deques) storage.declare(name, initial);
  Rng rng{1};
  lang::ProgramEvaluator evaluator;

  std::vector<const dsl::CompiledRule*> rules;
  for (const auto& state : attack.states) {
    for (const auto& rule : state.rules) rules.push_back(&rule);
  }

  // Agreement check first (also warms every allocation the compiled path
  // will ever make): program verdict == oracle verdict for every pair.
  std::uint64_t matches = 0;
  std::uint64_t guard_skips = 0;
  std::uint64_t oracle_throws = 0;
  for (const lang::InFlightMessage& msg : mix) {
    lang::EvalContext ctx;
    ctx.message = &msg;
    ctx.storage = &storage;
    ctx.rng = &rng;
    for (const dsl::CompiledRule* rule : rules) {
      bool tree_match = false;
      bool tree_threw = false;
      try {
        tree_match = lang::evaluate_bool(*rule->rule.conditional, ctx);
      } catch (const std::exception&) {
        tree_threw = true;
        ++oracle_throws;
      }
      bool prog_match = false;
      if (!rule->program.guard().admits(msg)) {
        ++guard_skips;
        // Guard soundness: a skipped context is a non-match for the oracle.
        if (tree_match) {
          std::fprintf(stderr, "guard unsound: skipped a matching context\n");
          return 1;
        }
      } else {
        const lang::ExecStatus status = evaluator.run_bool(rule->program, ctx, prog_match);
        if ((status == lang::ExecStatus::Ok) == tree_threw ||
            (status == lang::ExecStatus::Ok && prog_match != tree_match)) {
          std::fprintf(stderr, "compiled/oracle disagreement\n");
          return 1;
        }
      }
      if (tree_match) ++matches;
    }
  }

  const std::size_t rule_evals = kEvalPasses * kMessages * rules.size();

  const memhook::Window alloc_window = memhook::Window::open();
  auto t0 = std::chrono::steady_clock::now();
  std::uint64_t compiled_true = 0;
  for (std::size_t pass = 0; pass < kEvalPasses; ++pass) {
    for (const lang::InFlightMessage& msg : mix) {
      lang::EvalContext ctx;
      ctx.message = &msg;
      ctx.storage = &storage;
      ctx.rng = &rng;
      for (const dsl::CompiledRule* rule : rules) {
        if (!rule->program.guard().admits(msg)) continue;
        bool out = false;
        if (evaluator.run_bool(rule->program, ctx, out) == lang::ExecStatus::Ok && out) {
          ++compiled_true;
        }
      }
    }
  }
  const double eval_compiled_s = seconds_since(t0);
  const std::uint64_t eval_allocations = alloc_window.allocations();

  t0 = std::chrono::steady_clock::now();
  std::uint64_t tree_true = 0;
  for (std::size_t pass = 0; pass < kEvalPasses; ++pass) {
    for (const lang::InFlightMessage& msg : mix) {
      lang::EvalContext ctx;
      ctx.message = &msg;
      ctx.storage = &storage;
      ctx.rng = &rng;
      for (const dsl::CompiledRule* rule : rules) {
        try {
          if (lang::evaluate_bool(*rule->rule.conditional, ctx)) ++tree_true;
        } catch (const std::exception&) {
        }
      }
    }
  }
  const double eval_tree_s = seconds_since(t0);
  if (compiled_true != tree_true) {
    std::fprintf(stderr, "match-count disagreement: compiled %llu vs tree %llu\n",
                 static_cast<unsigned long long>(compiled_true),
                 static_cast<unsigned long long>(tree_true));
    return 1;
  }

  // --- Full executor path: process() with programs vs oracle mode. ---
  auto time_processing = [&](bool use_compiled, inject::ExecutorStats& stats_out) {
    monitor::Monitor monitor;
    monitor.set_counters_only(true);
    Rng proc_rng{1};
    inject::AttackExecutor exec(attack, doc.capabilities, monitor, proc_rng);
    exec.set_use_compiled(use_compiled);
    for (const lang::InFlightMessage& msg : mix) exec.process(msg);  // warm-up pass
    exec.reset();
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t pass = 0; pass < kProcPasses; ++pass) {
      for (const lang::InFlightMessage& msg : mix) {
        inject::ExecutionResult r = exec.process(msg);
        benchmark::DoNotOptimize(r);
      }
    }
    const double elapsed = seconds_since(start);
    stats_out = exec.stats();
    return elapsed;
  };

  inject::ExecutorStats stats_compiled;
  inject::ExecutorStats stats_tree;
  const double proc_compiled_s = time_processing(true, stats_compiled);
  const double proc_tree_s = time_processing(false, stats_tree);
  if (stats_compiled.rules_matched != stats_tree.rules_matched) {
    std::fprintf(stderr, "executor disagreement: matched %llu vs %llu\n",
                 static_cast<unsigned long long>(stats_compiled.rules_matched),
                 static_cast<unsigned long long>(stats_tree.rules_matched));
    return 1;
  }

  // --- Interposition: the mix through the proxy's on_envelope(), armed
  // with the same rules, counters-only monitor, counting sinks. Each pass
  // consumes its own pre-built envelopes.
  std::uint64_t interpose_delivered = 0;
  std::uint64_t interpose_slab_allocations = 0;
  const double interpose_s = [&] {
    sim::Scheduler sched;
    monitor::Monitor monitor;
    monitor.set_counters_only(true);
    inject::RuntimeInjector injector{sched, model, monitor};
    const ConnectionId conn = mix.front().connection;
    injector.attach_connection(
        conn, [&](chan::Envelope) { ++interpose_delivered; },
        [&](chan::Envelope) { ++interpose_delivered; });
    injector.arm(attack, doc.capabilities);
    auto envelopes = [&](std::size_t passes) {
      std::vector<chan::Envelope> out;
      out.reserve(passes * kMessages);
      for (std::size_t pass = 0; pass < passes; ++pass) {
        for (const lang::InFlightMessage& msg : mix) out.push_back(msg.envelope);
      }
      return out;
    };
    for (chan::Envelope& e : envelopes(1)) {  // warm-up pass
      injector.on_envelope(conn, mix.front().direction, std::move(e));
    }
    std::vector<chan::Envelope> timed = envelopes(kProcPasses);
    interpose_delivered = 0;
    const std::uint64_t slab_before = mem::thread_slab().stats().allocs;
    const auto start = std::chrono::steady_clock::now();
    for (chan::Envelope& e : timed) {
      injector.on_envelope(conn, mix.front().direction, std::move(e));
    }
    const double elapsed = seconds_since(start);
    interpose_slab_allocations = mem::thread_slab().stats().allocs - slab_before;
    return elapsed;
  }();

  const std::size_t proc_messages = kProcPasses * kMessages;
  if (interpose_delivered != proc_messages) {  // every harness rule passes
    std::fprintf(stderr, "interpose leg delivered %llu of %zu messages\n",
                 static_cast<unsigned long long>(interpose_delivered), proc_messages);
    return 1;
  }
  const double guard_skip_rate =
      static_cast<double>(guard_skips) / static_cast<double>(kMessages * rules.size());

  bench::Metrics metrics;
  metrics.emplace_back("eval_compiled_seconds", eval_compiled_s);
  metrics.emplace_back("eval_tree_seconds", eval_tree_s);
  metrics.emplace_back("process_compiled_seconds", proc_compiled_s);
  metrics.emplace_back("process_tree_seconds", proc_tree_s);
  metrics.emplace_back("per_message_ns_compiled",
                       eval_compiled_s * 1e9 / static_cast<double>(kEvalPasses * kMessages));
  metrics.emplace_back("per_message_ns_tree",
                       eval_tree_s * 1e9 / static_cast<double>(kEvalPasses * kMessages));
  metrics.emplace_back("process_per_message_ns_compiled",
                       proc_compiled_s * 1e9 / static_cast<double>(proc_messages));
  metrics.emplace_back("process_per_message_ns_tree",
                       proc_tree_s * 1e9 / static_cast<double>(proc_messages));
  metrics.emplace_back("interpose_per_message_ns",
                       interpose_s * 1e9 / static_cast<double>(proc_messages));
  metrics.emplace_back("interpose_slab_allocations",
                       static_cast<double>(interpose_slab_allocations));
  metrics.emplace_back("rules_per_second_compiled",
                       static_cast<double>(rule_evals) / eval_compiled_s);
  metrics.emplace_back("speedup_eval", eval_tree_s / eval_compiled_s);
  metrics.emplace_back("speedup_process", proc_tree_s / proc_compiled_s);
  metrics.emplace_back("guard_skip_rate", guard_skip_rate);
  metrics.emplace_back("eval_allocations", static_cast<double>(eval_allocations));

  // Deterministic facts about the run (counts, not timings).
  std::string results = "{";
  results += "\"messages\":" + std::to_string(kMessages);
  results += ",\"rules\":" + std::to_string(rules.size());
  results += ",\"rule_evals_timed\":" + std::to_string(rule_evals);
  results += ",\"oracle_matches_per_pass\":" + std::to_string(matches);
  results += ",\"oracle_throws_per_pass\":" + std::to_string(oracle_throws);
  results += ",\"guard_skips_per_pass\":" + std::to_string(guard_skips);
  results += ",\"executor_rules_matched\":" + std::to_string(stats_compiled.rules_matched);
  results += ",\"executor_rules_skipped_by_guard\":" +
             std::to_string(stats_compiled.rules_skipped_by_guard);
  results += ",\"agreement\":true}";

  if (!bench::write_bench_json(json_path, "injector_overhead", "default", results, metrics)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }

  std::printf("rule evaluation, %zu rules x %zu messages x %zu passes:\n", rules.size(),
              kMessages, kEvalPasses);
  std::printf("  compiled: %8.3f ms  (%6.1f ns/message, %llu allocations)\n",
              eval_compiled_s * 1e3,
              eval_compiled_s * 1e9 / static_cast<double>(kEvalPasses * kMessages),
              static_cast<unsigned long long>(eval_allocations));
  std::printf("  tree:     %8.3f ms  (%6.1f ns/message, %llu throws/pass)\n", eval_tree_s * 1e3,
              eval_tree_s * 1e9 / static_cast<double>(kEvalPasses * kMessages),
              static_cast<unsigned long long>(oracle_throws));
  std::printf("  speedup: %.1fx eval, %.1fx full process(); guard skip rate %.1f%%\n",
              eval_tree_s / eval_compiled_s, proc_tree_s / proc_compiled_s,
              guard_skip_rate * 100.0);
  std::printf("  interpose: %6.1f ns/message through on_envelope(), %llu slab allocations\n",
              interpose_s * 1e9 / static_cast<double>(proc_messages),
              static_cast<unsigned long long>(interpose_slab_allocations));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = attain::bench::json_out_path(argc, argv);
  if (!json_path.empty()) return run_harness(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
