#include "attain/inject/executor.hpp"

#include <span>

namespace attain::inject {

AttackExecutor::AttackExecutor(const dsl::CompiledAttack& attack,
                               const model::CapabilityMap& capabilities,
                               monitor::Monitor& monitor, Rng& rng)
    : attack_(attack), capabilities_(capabilities), monitor_(monitor), rng_(rng) {
  for (const auto& [name, initial] : attack_.deques) {
    storage_.declare(name, initial);
  }
  rule_buckets_.resize(attack_.states.size());
  for (std::size_t s = 0; s < attack_.states.size(); ++s) {
    const auto& rules = attack_.states[s].rules;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      rule_buckets_[s][rules[r].rule.connection].push_back(static_cast<std::uint32_t>(r));
    }
  }
  mod_ctx_.storage = &storage_;
  mod_ctx_.rng = &rng_;
  mod_ctx_.monitor = &monitor_;
  mod_ctx_.next_id = [this] { return next_id(); };
  mod_ctx_.next_xid = [this] { return ++xid_counter_; };
  mod_ctx_.evaluator = &evaluator_;
  reset();
}

void AttackExecutor::reset() {
  current_ = attack_.start_index;  // σ_current ← σ_start
  storage_.reset();
}

const std::string& AttackExecutor::current_state_name() const {
  return attack_.states[current_].name;
}

ConnectionGuards AttackExecutor::guard_summaries(ConnectionId conn) const {
  ConnectionGuards guards(attack_.states.size());
  for (std::size_t s = 0; s < attack_.states.size(); ++s) {
    const auto bucket = rule_buckets_[s].find(conn);
    if (bucket == rule_buckets_[s].end()) continue;
    for (unsigned d = 0; d < 2; ++d) {
      GuardSummary& summary = guards[s][d];
      summary.rules = static_cast<std::uint32_t>(bucket->second.size());
      for (const std::uint32_t rule_index : bucket->second) {
        const dsl::CompiledRule& compiled = attack_.states[s].rules[rule_index];
        if (!compiled.has_programs) {
          summary.admitted = ~0u;  // would tree-walk: admits every shape
          continue;
        }
        // Shape-level Guard::admits(): direction bit, then undecodable_ok
        // for payload-less frames, then the type bit.
        const lang::Guard& guard = compiled.program.guard();
        if ((guard.direction_mask & (1u << d)) == 0) continue;
        summary.admitted |= guard.type_mask & lang::Guard::kAllTypes;
        if (guard.undecodable_ok) summary.admitted |= 1u << GuardSummary::kNoPayloadBit;
      }
    }
  }
  return guards;
}

bool AttackExecutor::try_guard_skip(const ConnectionGuards& guards, lang::Direction direction,
                                    std::optional<ofp::MsgType> type) {
  if (!use_compiled_) return false;  // oracle mode evaluates every rule
  const GuardSummary& summary = guards[current_][static_cast<unsigned>(direction)];
  if (summary.admits(type)) return false;
  stats_.rules_skipped_by_guard += summary.rules;
  ++stats_.messages_processed;
  return true;
}

ExecutionResult AttackExecutor::process(lang::InFlightMessage msg) {
  ++stats_.messages_processed;
  ExecutionResult result;
  // line 5: msg_out ← [msg_in], implicit until an action needs the list
  // itself. Until then result.outgoing is empty and msg_out is msg_in
  // (when `kept`) with `delay` accumulated.
  bool materialized = false;
  bool kept = true;
  SimTime delay = 0;
  // line 6: σ_previous ← σ_current (rules of the state at arrival apply,
  // even if an earlier rule in the same state transitions away).
  const std::size_t previous = current_;
  const dsl::CompiledState& state = attack_.states[previous];

  const auto bucket = rule_buckets_[previous].find(msg.connection);
  std::span<const std::uint32_t> rule_indices;  // stays empty: no rule bound to n
  if (bucket != rule_buckets_[previous].end()) rule_indices = bucket->second;
  // The fields every event a rule raises on this message shares.
  const auto rule_event = [&](monitor::EventKind kind, const lang::Rule& rule) {
    monitor::Event event;
    event.kind = kind;
    event.time = msg.timestamp;
    event.connection = msg.connection;
    event.rule = rule.name;
    event.state = state.name;
    return event;
  };
  for (const std::uint32_t rule_index : rule_indices) {
    const dsl::CompiledRule& compiled = state.rules[rule_index];
    const lang::Rule& rule = compiled.rule;
    const bool run_program = use_compiled_ && compiled.has_programs;

    // One bitmask test dismisses the whole rule when the message's shape
    // (type x direction x decodability) can't satisfy the conditional — in
    // particular the seed's throw-per-absent-field steady state.
    if (run_program && !compiled.program.guard().admits(msg)) {
      ++stats_.rules_skipped_by_guard;
      continue;
    }
    ++stats_.rules_evaluated;

    // Defence in depth: the compiler already proved required ⊆ granted,
    // but a hand-built CompiledAttack could bypass it.
    if (!capabilities_.allows(rule.connection, compiled.required)) {
      ++stats_.capability_violations;
      if (monitor_.wants(monitor::EventKind::EvalError)) {
        monitor::Event event = rule_event(monitor::EventKind::EvalError, rule);
        event.detail = "runtime capability violation";
        monitor_.record(std::move(event));
      }
      continue;
    }

    lang::EvalContext ectx;
    ectx.message = &msg;
    ectx.storage = &storage_;
    ectx.rng = &rng_;

    bool matched = false;
    if (run_program) {
      ++stats_.programs_executed;
      const lang::ExecStatus status = evaluator_.run_bool(compiled.program, ectx, matched);
      if (status != lang::ExecStatus::Ok) {
        matched = false;
        ++stats_.eval_errors;
        if (monitor_.wants(monitor::EventKind::EvalError)) {
          monitor::Event event = rule_event(monitor::EventKind::EvalError, rule);
          event.message_id = msg.id;
          event.detail = evaluator_.error_detail(compiled.program, ectx);
          monitor_.record(std::move(event));
        }
      }
    } else {
      try {
        matched = lang::evaluate_bool(*rule.conditional, ectx);
      } catch (const std::exception& err) {
        ++stats_.eval_errors;
        if (monitor_.wants(monitor::EventKind::EvalError)) {
          monitor::Event event = rule_event(monitor::EventKind::EvalError, rule);
          event.message_id = msg.id;
          event.detail = err.what();
          monitor_.record(std::move(event));
        }
      }
    }
    if (!matched) continue;

    ++stats_.rules_matched;
    if (monitor_.wants(monitor::EventKind::RuleMatched)) {
      monitor::Event event = rule_event(monitor::EventKind::RuleMatched, rule);
      event.message_id = msg.id;
      if (const ofp::Message* payload = msg.payload()) event.message_type = payload->type();
      monitor_.record(std::move(event));
    }

    mod_ctx_.original = &msg;
    mod_ctx_.state_name = state.name.c_str();
    mod_ctx_.rule_name = rule.name.c_str();

    for (std::size_t action_index = 0; action_index < rule.actions.size(); ++action_index) {
      const lang::ActionSpec& action = rule.actions[action_index];
      ++stats_.actions_executed;
      if (const auto* go = std::get_if<lang::ActGoTo>(&action)) {
        const std::size_t target = attack_.state_index(go->state);
        if (target != current_) {
          current_ = target;  // lines 11–12
          ++stats_.state_transitions;
          if (monitor_.wants(monitor::EventKind::StateTransition)) {
            monitor::Event event = rule_event(monitor::EventKind::StateTransition, rule);
            event.detail = "-> " + go->state;
            monitor_.record(std::move(event));
          }
        }
        continue;
      }
      if (const auto* sleep = std::get_if<lang::ActSleep>(&action)) {
        result.sleep += sleep->duration;
        continue;
      }
      if (const auto* syscmd = std::get_if<lang::ActSysCmd>(&action)) {
        result.syscmds.push_back(SysCmdCall{syscmd->host, syscmd->command});
        if (monitor_.wants(monitor::EventKind::SysCmd)) {
          monitor::Event event = rule_event(monitor::EventKind::SysCmd, rule);
          event.detail = syscmd->host + ": " + syscmd->command;
          monitor_.record(std::move(event));
        }
        continue;
      }
      mod_ctx_.value_program =
          run_program && action_index < compiled.action_programs.size() &&
                  !compiled.action_programs[action_index].empty()
              ? &compiled.action_programs[action_index]
              : nullptr;
      if (!materialized) {
        // Actions on the implicit msg_out. apply_action() still runs on
        // the empty list, so the monitor records exactly what it would.
        if (std::holds_alternative<lang::ActDrop>(action)) {
          kept = false;
        } else if (const auto* delayed = std::get_if<lang::ActDelay>(&action)) {
          if (kept) delay += delayed->delay;
        } else if (!std::holds_alternative<lang::ActPass>(action)) {
          if (kept) result.outgoing.push_back(OutMessage{msg, delay});
          materialized = true;
        }
      }
      apply_action(action, result.outgoing, mod_ctx_);  // line 14
    }
  }
  if (!materialized && kept) result.outgoing.push_back(OutMessage{std::move(msg), delay});
  return result;
}

}  // namespace attain::inject
