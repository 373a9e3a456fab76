// The injector's per-frame path: guard summaries resolved per connection at
// arm/attach time must give exactly the verdicts and ExecutorStats of the
// per-message bucket walk they replace, must follow re-arms and late
// attaches, and a suppressed FLOW_MOD must cost no allocation at all.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "attain/dsl/parser.hpp"
#include "attain/dsl/templates.hpp"
#include "attain/inject/proxy.hpp"
#include "common/alloc_hook.hpp"
#include "common/arena.hpp"
#include "scenario/enterprise.hpp"
#include "support/attack_templates.hpp"
#include "support/enterprise_fixtures.hpp"

namespace attain::inject {
namespace {

constexpr lang::Direction kDirections[] = {lang::Direction::SwitchToController,
                                           lang::Direction::ControllerToSwitch};

/// Every frame shape a guard distinguishes: the 20 OpenFlow types plus "no
/// payload" (sealed or undecodable).
std::vector<std::optional<ofp::MsgType>> all_shapes() {
  std::vector<std::optional<ofp::MsgType>> shapes;
  for (std::size_t t = 0; t < ofp::kMsgTypeCount; ++t) {
    shapes.emplace_back(static_cast<ofp::MsgType>(t));
  }
  shapes.emplace_back(std::nullopt);
  return shapes;
}

struct WalkVerdict {
  bool skip{false};
  std::uint64_t skipped_rules{0};
};

/// The per-message bucket walk the guard summaries replaced: the rules of
/// `state` bound to `conn`, in order, each tested at shape level.
WalkVerdict bucket_walk(const dsl::CompiledAttack& attack, std::size_t state, ConnectionId conn,
                        lang::Direction direction, std::optional<ofp::MsgType> type) {
  std::uint64_t bucket_size = 0;
  for (const dsl::CompiledRule& compiled : attack.states[state].rules) {
    if (compiled.rule.connection != conn) continue;
    ++bucket_size;
    if (!compiled.has_programs) return {};
    const lang::Guard& guard = compiled.program.guard();
    if ((guard.direction_mask & (1u << static_cast<unsigned>(direction))) == 0) continue;
    if (!type.has_value()) {
      if (guard.undecodable_ok) return {};
      continue;
    }
    if ((guard.type_mask >> static_cast<unsigned>(*type)) & 1u) return {};
  }
  return {true, bucket_size};
}

void expect_same_stats(const ExecutorStats& a, const ExecutorStats& b, const std::string& where) {
  EXPECT_EQ(a.messages_processed, b.messages_processed) << where;
  EXPECT_EQ(a.rules_evaluated, b.rules_evaluated) << where;
  EXPECT_EQ(a.rules_matched, b.rules_matched) << where;
  EXPECT_EQ(a.actions_executed, b.actions_executed) << where;
  EXPECT_EQ(a.state_transitions, b.state_transitions) << where;
  EXPECT_EQ(a.capability_violations, b.capability_violations) << where;
  EXPECT_EQ(a.eval_errors, b.eval_errors) << where;
  EXPECT_EQ(a.rules_skipped_by_guard, b.rules_skipped_by_guard) << where;
  EXPECT_EQ(a.programs_executed, b.programs_executed) << where;
}

struct NamedAttack {
  std::string name;
  dsl::CompiledAttack attack;
  model::CapabilityMap capabilities;
};

/// Every attack the DSL, template and scenario code compiles against the
/// enterprise model, plus a hand-built variant whose rule on (c1, s2) has
/// no compiled program (it would tree-walk, so its bucket admits all).
std::vector<NamedAttack> all_attacks(const topo::SystemModel& model) {
  namespace t = dsl::templates;
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"flow_mod_suppression", scenario::flow_mod_suppression_dsl()},
      {"connection_interruption", scenario::connection_interruption_dsl()},
      {"trivial_pass_all", scenario::trivial_pass_all_dsl()},
      {"suppress_type", t::suppress_type({{"c1", "s1"}, {"c1", "s3"}}, "PACKET_IN")},
      {"count_gate", t::count_gate({"c1", "s2"}, "FLOW_MOD", 7)},
      {"delay_all", t::delay_all({{"c1", "s1"}, {"c1", "s3"}}, 0.25)},
      {"interrupt_after", t::interrupt_after({"c1", "s2"}, "PACKET_IN")},
      {"stochastic_drop", t::stochastic_drop({"c1", "s4"}, 30)},
      {"fuzz_type", t::fuzz_type({"c1", "s1"}, "PACKET_OUT", 3)},
      {"replay_amplifier", t::replay_amplifier({"c1", "s2"}, "FLOW_MOD", 2)},
      {"packet_in_flood", t::packet_in_flood({"c1", "s3"}, "ECHO_REQUEST", 4)},
  };
  std::vector<NamedAttack> attacks;
  for (const auto& [name, source] : sources) {
    const dsl::Document doc = dsl::parse_document(source, model);
    attacks.push_back(
        {name, dsl::compile(doc.attacks.at(0), model, doc.capabilities), doc.capabilities});
  }
  scenario::LinkFabricationAttack fabrication =
      scenario::make_link_fabrication_attack(model, "s1", 4, "s4", 4);
  attacks.push_back({"link_fabrication",
                     dsl::compile(fabrication.attack, model, fabrication.capabilities),
                     fabrication.capabilities});

  NamedAttack uncompiled = attacks.front();
  uncompiled.name = "flow_mod_suppression_uncompiled_s2";
  for (dsl::CompiledRule& rule : uncompiled.attack.states[0].rules) {
    if (rule.rule.connection.sw == model.require("s2")) rule.has_programs = false;
  }
  attacks.push_back(std::move(uncompiled));
  return attacks;
}

TEST(InjectorGuardSummary, MatchesBucketWalk) {
  const topo::SystemModel model = scenario::make_enterprise_model();
  const std::vector<std::optional<ofp::MsgType>> shapes = all_shapes();
  std::size_t checked = 0;
  std::size_t skips = 0;
  for (const NamedAttack& named : all_attacks(model)) {
    for (std::size_t state = 0; state < named.attack.states.size(); ++state) {
      // An executor that starts (and, since skips change nothing, stays)
      // in `state`.
      dsl::CompiledAttack at_state = named.attack;
      at_state.start_index = state;
      for (const bool use_compiled : {true, false}) {
        monitor::Monitor monitor;
        monitor.set_counters_only(true);
        Rng rng{7};
        AttackExecutor exec(at_state, named.capabilities, monitor, rng);
        exec.set_use_compiled(use_compiled);
        ASSERT_EQ(exec.current_state_index(), state);
        for (const topo::ControlConnSpec& spec : model.control_connections()) {
          const ConnectionGuards guards = exec.guard_summaries(spec.id);
          ASSERT_EQ(guards.size(), named.attack.states.size());
          for (const lang::Direction direction : kDirections) {
            for (const std::optional<ofp::MsgType> type : shapes) {
              const std::string where =
                  named.name + " state " + named.attack.states[state].name + " conn " +
                  model.name_of(spec.id.sw) + " " + chan::to_string(direction) + " " +
                  (type ? ofp::to_string(*type) : "no-payload") +
                  (use_compiled ? "" : " oracle");
              WalkVerdict expected = bucket_walk(named.attack, state, spec.id, direction, type);
              if (!use_compiled) expected = {};  // the oracle never skips
              ExecutorStats want = exec.stats();
              if (expected.skip) {
                ++want.messages_processed;
                want.rules_skipped_by_guard += expected.skipped_rules;
              }
              EXPECT_EQ(exec.try_guard_skip(guards, direction, type), expected.skip) << where;
              expect_same_stats(exec.stats(), want, where);
              ++checked;
              if (expected.skip) ++skips;
            }
          }
        }
      }
    }
  }
  // Both verdicts occur, so neither side is trivially constant.
  EXPECT_GT(skips, 0u);
  EXPECT_LT(skips, checked);
}

/// A RuntimeInjector on the enterprise model with a counters-only monitor
/// (the configuration of the campaign cells). Connections attach on demand.
struct InjectorFixture {
  sim::Scheduler sched;
  topo::SystemModel model = scenario::make_enterprise_model();
  monitor::Monitor monitor;
  RuntimeInjector injector{sched, model, monitor};
  std::uint64_t to_controller{0};
  std::uint64_t to_switch{0};
  std::vector<std::unique_ptr<NamedAttack>> armed;

  InjectorFixture() { monitor.set_counters_only(true); }

  ConnectionId conn(const char* sw) const { return {model.require("c1"), model.require(sw)}; }

  void attach(const char* sw) {
    injector.attach_connection(
        conn(sw), [this](chan::Envelope) { ++to_controller; },
        [this](chan::Envelope) { ++to_switch; });
  }

  void arm(const std::string& source) {
    const dsl::Document doc = dsl::parse_document(source, model);
    auto a = std::make_unique<NamedAttack>();
    a->capabilities = doc.capabilities;
    a->attack = dsl::compile(doc.attacks.at(0), model, a->capabilities);
    injector.arm(a->attack, a->capabilities);
    armed.push_back(std::move(a));
  }

  void flow_mod(const char* sw) {
    ofp::FlowMod mod;
    mod.match = ofp::Match::wildcard_all();
    mod.actions = ofp::output_to(std::uint16_t{2});
    injector.on_envelope(conn(sw), chan::Direction::ControllerToSwitch,
                         chan::Envelope(ofp::make_message(5, std::move(mod))));
  }

  void packet_in(const char* sw) {
    injector.on_envelope(conn(sw), chan::Direction::SwitchToController,
                         chan::Envelope(ofp::make_message(6, ofp::PacketIn{})));
  }

  const ExecutorStats& exec_stats() const { return injector.executor()->stats(); }
};

TEST(InjectorGuardSummary, RearmAndLateAttach) {
  InjectorFixture fx;
  fx.attach("s1");

  // Attack A drops FLOW_MODs on every connection.
  fx.arm(scenario::flow_mod_suppression_dsl());
  fx.flow_mod("s1");
  EXPECT_EQ(fx.to_switch, 0u);
  EXPECT_EQ(fx.exec_stats().rules_evaluated, 1u);
  fx.injector.disarm();

  // Attack B has different buckets: it drops PACKET_INs on s1 and s2 only.
  // A FLOW_MOD on s1 must now skip B's one-rule bucket, not run A's rule.
  fx.arm(dsl::templates::suppress_type({{"c1", "s1"}, {"c1", "s2"}}, "PACKET_IN"));
  fx.flow_mod("s1");
  EXPECT_EQ(fx.to_switch, 1u);
  EXPECT_EQ(fx.exec_stats().rules_evaluated, 0u);
  EXPECT_EQ(fx.exec_stats().rules_skipped_by_guard, 1u);
  fx.packet_in("s1");
  EXPECT_EQ(fx.to_controller, 0u);
  EXPECT_EQ(fx.exec_stats().rules_matched, 1u);

  // Connections attached while B is armed get B's summaries.
  fx.attach("s2");
  fx.attach("s3");
  fx.flow_mod("s2");  // skipped: one PACKET_IN rule in the bucket
  fx.flow_mod("s3");  // skipped: no rule bound to (c1, s3)
  EXPECT_EQ(fx.to_switch, 3u);
  EXPECT_EQ(fx.exec_stats().rules_skipped_by_guard, 2u);
  EXPECT_EQ(fx.exec_stats().messages_processed, 4u);
  fx.packet_in("s2");
  fx.packet_in("s3");
  EXPECT_EQ(fx.to_controller, 1u);  // s2's dropped, s3's passed
  EXPECT_EQ(fx.exec_stats().rules_matched, 2u);
  EXPECT_EQ(fx.injector.stats().messages_suppressed, 3u);
}

TEST(Injector, SuppressedFlowModAllocatesNothing) {
  InjectorFixture fx;
  for (const char* sw : {"s1", "s2", "s3", "s4"}) fx.attach(sw);
  fx.arm(scenario::flow_mod_suppression_dsl());
  const ConnectionId conn = fx.conn("s2");
  auto make_flow_mod = [] {
    ofp::FlowMod mod;
    mod.match = ofp::Match::wildcard_all();
    mod.actions = ofp::output_to(std::uint16_t{2});
    return chan::Envelope(ofp::make_message(5, std::move(mod)));
  };
  for (int i = 0; i < 16; ++i) {
    fx.injector.on_envelope(conn, chan::Direction::ControllerToSwitch, make_flow_mod());
  }

  constexpr std::size_t kFrames = 256;
  std::vector<chan::Envelope> frames;
  frames.reserve(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) frames.push_back(make_flow_mod());
  const std::uint64_t suppressed_before = fx.injector.stats().messages_suppressed;

  const std::uint64_t slab_before = mem::thread_slab().stats().allocs;
  const memhook::Window heap = memhook::Window::open();
  for (chan::Envelope& frame : frames) {
    fx.injector.on_envelope(conn, chan::Direction::ControllerToSwitch, std::move(frame));
  }
  const std::uint64_t heap_allocations = heap.allocations();
  const std::uint64_t slab_allocations = mem::thread_slab().stats().allocs - slab_before;

  EXPECT_EQ(slab_allocations, 0u);
  EXPECT_EQ(heap_allocations, 0u);
  EXPECT_EQ(fx.injector.stats().messages_suppressed - suppressed_before, kFrames);
  EXPECT_EQ(fx.to_switch, 0u);
}

}  // namespace
}  // namespace attain::inject
