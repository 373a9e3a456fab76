#include "attain/lang/attack.hpp"

#include <algorithm>
#include <stdexcept>

namespace attain::lang {

model::CapabilitySet Rule::required_capabilities() const {
  model::CapabilitySet caps = capabilities;
  if (conditional) caps = caps | lang::required_capabilities(*conditional);
  for (const ActionSpec& action : actions) {
    caps = caps | total_action_capabilities(action);
  }
  return caps;
}

std::set<std::string> AttackState::goto_targets() const {
  std::set<std::string> targets;
  for (const Rule& rule : rules) {
    for (const ActionSpec& action : rule.actions) {
      if (const auto* go = std::get_if<ActGoTo>(&action)) {
        if (go->state != name) targets.insert(go->state);
      }
    }
  }
  return targets;
}

const AttackState* Attack::find_state(const std::string& state_name) const {
  for (const AttackState& state : states) {
    if (state.name == state_name) return &state;
  }
  return nullptr;
}

std::vector<std::string> Attack::absorbing_states() const {
  std::vector<std::string> out;
  for (const AttackState& state : states) {
    if (state.goto_targets().empty()) out.push_back(state.name);
  }
  return out;
}

std::vector<std::string> Attack::end_states() const {
  std::vector<std::string> out;
  for (const std::string& name : absorbing_states()) {
    if (find_state(name)->is_end()) out.push_back(name);
  }
  return out;
}

StateGraph Attack::graph() const {
  StateGraph graph;
  for (const AttackState& state : states) graph.vertices.push_back(state.name);
  for (const AttackState& state : states) {
    // Group actions by target so each edge carries the actions of the
    // rules that transition along it (A_{Σ_G}).
    std::map<std::string, std::vector<std::string>> by_target;
    for (const Rule& rule : state.rules) {
      std::optional<std::string> target;
      for (const ActionSpec& action : rule.actions) {
        if (const auto* go = std::get_if<ActGoTo>(&action)) target = go->state;
      }
      if (target && *target != state.name) {
        auto& labels = by_target[*target];
        for (const ActionSpec& action : rule.actions) {
          labels.push_back(to_string(action));
        }
      }
    }
    for (auto& [target, labels] : by_target) {
      graph.edges.push_back(StateGraph::Edge{state.name, target, std::move(labels)});
    }
  }
  return graph;
}

void collect_deque_refs(const Expr& expr, std::set<std::string>& out) {
  switch (expr.kind) {
    case Expr::Kind::DequeFront:
    case Expr::Kind::DequeEnd:
    case Expr::Kind::DequeLen:
      out.insert(expr.deque_name);
      break;
    case Expr::Kind::Not:
      collect_deque_refs(*expr.a, out);
      break;
    case Expr::Kind::Binary:
      collect_deque_refs(*expr.a, out);
      collect_deque_refs(*expr.b, out);
      break;
    case Expr::Kind::InSet:
      collect_deque_refs(*expr.a, out);
      break;
    default:
      break;
  }
}

void collect_deque_refs(const ActionSpec& action, std::set<std::string>& out) {
  if (const auto* a = std::get_if<ActPrepend>(&action)) {
    out.insert(a->deque);
    if (a->value) collect_deque_refs(*a->value, out);
  } else if (const auto* a = std::get_if<ActAppend>(&action)) {
    out.insert(a->deque);
    if (a->value) collect_deque_refs(*a->value, out);
  } else if (const auto* a = std::get_if<ActShift>(&action)) {
    out.insert(a->deque);
  } else if (const auto* a = std::get_if<ActPop>(&action)) {
    out.insert(a->deque);
  } else if (const auto* a = std::get_if<ActSendStored>(&action)) {
    out.insert(a->deque);
  } else if (const auto* a = std::get_if<ActModifyField>(&action)) {
    if (a->value) collect_deque_refs(*a->value, out);
  }
}

void Attack::validate_structure() const {
  if (states.empty()) throw std::invalid_argument("attack '" + name + "': |Σ| >= 1 violated");
  if (find_state(start_state) == nullptr) {
    throw std::invalid_argument("attack '" + name + "': start state '" + start_state +
                                "' is not defined");
  }
  std::set<std::string> declared;
  for (const auto& [deque_name, _] : deques) {
    if (!declared.insert(deque_name).second) {
      throw std::invalid_argument("attack '" + name + "': deque '" + deque_name +
                                  "' declared twice");
    }
  }
  std::set<std::string> state_names;
  for (const AttackState& state : states) {
    if (!state_names.insert(state.name).second) {
      throw std::invalid_argument("attack '" + name + "': state '" + state.name +
                                  "' defined twice");
    }
  }
  for (const AttackState& state : states) {
    for (const std::string& target : state.goto_targets()) {
      if (find_state(target) == nullptr) {
        throw std::invalid_argument("attack '" + name + "': state '" + state.name +
                                    "' transitions to undefined state '" + target + "'");
      }
    }
    for (const Rule& rule : state.rules) {
      if (!rule.conditional) {
        throw std::invalid_argument("attack '" + name + "': rule '" + rule.name +
                                    "' has no conditional");
      }
      std::set<std::string> refs;
      collect_deque_refs(*rule.conditional, refs);
      for (const ActionSpec& action : rule.actions) collect_deque_refs(action, refs);
      for (const std::string& ref : refs) {
        if (!declared.contains(ref)) {
          throw std::invalid_argument("attack '" + name + "': rule '" + rule.name +
                                      "' references undeclared deque '" + ref + "'");
        }
      }
    }
  }
}

}  // namespace attain::lang
