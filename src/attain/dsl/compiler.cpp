#include "attain/dsl/compiler.hpp"

namespace attain::dsl {

std::size_t CompiledAttack::state_index(const std::string& state_name) const {
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (states[i].name == state_name) return i;
  }
  throw CompileError("attack '" + name + "' has no state '" + state_name + "'");
}

CompiledAttack compile(const lang::Attack& attack, const topo::SystemModel& system,
                       const model::CapabilityMap& capabilities, CompileOptions options) {
  // 1. Structural validation (|Σ| ≥ 1, start state, GoTo targets, deques).
  try {
    attack.validate_structure();
  } catch (const std::invalid_argument& err) {
    throw CompileError(err.what());
  }

  // 2. TLS consistency of the capability model itself.
  if (options.enforce_tls_consistency) {
    for (const auto& conn : system.control_connections()) {
      if (!conn.tls) continue;
      const model::CapabilitySet granted = capabilities.capabilities_on(conn.id);
      const model::CapabilitySet excess = granted - model::CapabilitySet::tls();
      if (!excess.empty()) {
        throw CompileError("capability grant on TLS connection (" +
                           system.name_of(conn.id.controller) + "," + system.name_of(conn.id.sw) +
                           ") exceeds Γ_TLS by " + excess.to_string());
      }
    }
  }

  // 3. Per-rule checks: connection exists in N_C; required ⊆ granted.
  CompiledAttack compiled;
  compiled.name = attack.name;
  compiled.deques = attack.deques;
  compiled.source = attack;
  // Deque declaration order is the DequeStore slot order the executor will
  // use, so rule programs can intern names to slots here, once.
  std::vector<std::string> deque_names;
  deque_names.reserve(attack.deques.size());
  for (const auto& [deque_name, initial] : attack.deques) deque_names.push_back(deque_name);
  const lang::Program::CompileEnv program_env{&deque_names};
  for (const lang::AttackState& state : attack.states) {
    CompiledState out;
    out.name = state.name;
    for (const lang::Rule& rule : state.rules) {
      if (!system.has_control_connection(rule.connection)) {
        // name_of would itself throw for out-of-range ids; render safely.
        auto safe_name = [&system](EntityId id) -> std::string {
          try {
            return system.name_of(id);
          } catch (const topo::ModelError&) {
            return to_string(id.kind) + "#" + std::to_string(id.index);
          }
        };
        throw CompileError("rule '" + rule.name + "' targets connection (" +
                           safe_name(rule.connection.controller) + "," +
                           safe_name(rule.connection.sw) + ") which is not in N_C");
      }
      const model::CapabilitySet required = rule.required_capabilities();
      const model::CapabilitySet granted = capabilities.capabilities_on(rule.connection);
      if (!granted.contains_all(required)) {
        const model::CapabilitySet missing = required - granted;
        throw CompileError("rule '" + rule.name + "' on (" +
                           system.name_of(rule.connection.controller) + "," +
                           system.name_of(rule.connection.sw) + ") requires capabilities " +
                           missing.to_string() + " the attacker was not granted");
      }
      CompiledRule compiled_rule{rule, required, {}, {}, false};
      if (rule.conditional) {
        compiled_rule.program = lang::Program::compile(*rule.conditional, program_env);
        compiled_rule.action_programs.reserve(rule.actions.size());
        for (const lang::ActionSpec& action : rule.actions) {
          const lang::ExprPtr* operand = nullptr;
          if (const auto* modify = std::get_if<lang::ActModifyField>(&action)) {
            operand = &modify->value;
          } else if (const auto* prepend = std::get_if<lang::ActPrepend>(&action)) {
            operand = &prepend->value;
          } else if (const auto* append = std::get_if<lang::ActAppend>(&action)) {
            operand = &append->value;
          }
          lang::Program operand_program;
          if (operand != nullptr && *operand) {
            operand_program = lang::Program::compile(**operand, program_env);
          }
          compiled_rule.action_programs.push_back(std::move(operand_program));
        }
        compiled_rule.has_programs = true;
      }
      out.rules.push_back(std::move(compiled_rule));
    }
    compiled.states.push_back(std::move(out));
  }
  compiled.start_index = compiled.state_index(attack.start_state);
  return compiled;
}

}  // namespace attain::dsl
