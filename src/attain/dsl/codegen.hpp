// The "executable code generator" of Fig. 7. The paper's Python artifact
// emitted a Python file included at attack runtime; the C++ reproduction
// executes the CompiledAttack directly, and this module emits the
// equivalent human-auditable artifacts: a full listing of the compiled
// program (states, rules, conditionals, actions, capability requirements)
// and a Graphviz rendering of the attack state graph Σ_G.
#pragma once

#include <string>

#include "attain/dsl/compiler.hpp"

namespace attain::dsl {

/// Renders the compiled attack as a listing, one section per state, in the
/// paper's φ = (n, γ, λ, α) notation.
std::string generate_listing(const CompiledAttack& attack, const topo::SystemModel& system);

/// Renders Σ_G as Graphviz DOT, with the start/absorbing/end
/// classification of §V-F.
std::string generate_state_graph_dot(const CompiledAttack& attack);

}  // namespace attain::dsl
