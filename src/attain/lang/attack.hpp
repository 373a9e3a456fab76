// Rules φ (§V-E), attack states Σ (§V-F), and the attack state graph Σ_G
// (§V-G). An Attack is the in-memory form the compiler produces and the
// runtime injector executes.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "attain/lang/actions.hpp"
#include "attain/lang/conditional.hpp"

namespace attain::lang {

/// φ = (n, γ, λ, α): connection, required capabilities, conditional, and
/// the ordered action list it triggers.
struct Rule {
  std::string name;                      // "phi1"
  ConnectionId connection;               // n ∈ N_C
  model::CapabilitySet capabilities;     // γ: declared requirement
  ExprPtr conditional;                   // λ
  std::vector<ActionSpec> actions;       // α (ordered)

  /// Capabilities actually needed: declared γ ∪ conditional reads ∪ action
  /// actuations (the compiler checks this against Γ_{N_C}).
  model::CapabilitySet required_capabilities() const;
};

/// σ: a named stage of the attack with an (unordered) rule set. A state
/// with no rules is an end state σ_end — every message passes untouched.
struct AttackState {
  std::string name;
  std::vector<Rule> rules;

  bool is_end() const { return rules.empty(); }
  /// States this state can transition to (targets of GoToState actions).
  std::set<std::string> goto_targets() const;
};

/// Σ_G = (V, E, A): vertices are state names; each edge carries the set of
/// actions (rendered) from rules of the source state that transition to
/// the target (the paper's edge-labelled attributes A_{Σ_G}).
struct StateGraph {
  struct Edge {
    std::string from;
    std::string to;
    std::vector<std::string> action_labels;
  };
  std::vector<std::string> vertices;
  std::vector<Edge> edges;
};

/// A complete attack description: storage declarations Δ, states Σ, and
/// the designated start state σ_start.
struct Attack {
  std::string name;
  /// Deque declarations with initial contents.
  std::vector<std::pair<std::string, std::vector<Value>>> deques;
  std::vector<AttackState> states;
  std::string start_state;

  const AttackState* find_state(const std::string& state_name) const;

  /// σ_absorbing: states with no outgoing transitions to other states.
  std::vector<std::string> absorbing_states() const;
  /// σ_end ⊆ σ_absorbing: absorbing states with no rules.
  std::vector<std::string> end_states() const;

  StateGraph graph() const;

  /// Structural validation (independent of any capability model):
  /// |Σ| ≥ 1, the start state exists, every GoToState target exists, every
  /// deque reference is declared, every rule has a conditional. Throws
  /// std::invalid_argument describing the first violation.
  void validate_structure() const;
};

/// Collects the deque names an expression references.
void collect_deque_refs(const Expr& expr, std::set<std::string>& out);
/// Collects the deque names an action references (including via embedded
/// expressions).
void collect_deque_refs(const ActionSpec& action, std::set<std::string>& out);

}  // namespace attain::lang
