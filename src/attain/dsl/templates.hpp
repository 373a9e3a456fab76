// Attack state-graph templates — the paper's §X future work: "predefined
// attack state graph templates to generate larger and more complex attack
// descriptions without having to manually generate many of the lower-level
// details."
//
// Each template takes a handful of parameters and emits complete DSL source
// (attacker block + attack block) ready for parse → compile against the
// caller's system model. Template output is ordinary DSL text so generated
// attacks remain auditable, shareable, and hand-editable.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace attain::dsl::templates {

/// A (controller, switch) pair by entity name, e.g. {"c1", "s2"}.
struct ConnRef {
  std::string controller;
  std::string sw;
};

/// Fig. 10 generalized: drop every message of `message_type` (a DSL type
/// constant such as "FLOW_MOD" or "PACKET_IN") on each listed connection.
/// One absorbing start state with one rule per connection.
std::string suppress_type(const std::vector<ConnRef>& connections,
                          const std::string& message_type);

/// §VIII-B counter gate: pass the first `count` messages of `message_type`
/// on `connection`, drop the rest. Single state + counter deque.
std::string count_gate(const ConnRef& connection, const std::string& message_type,
                       unsigned count);

/// Add `delay` to every message on each connection (control-plane latency
/// degradation — exercises DELAYMESSAGE).
std::string delay_all(const std::vector<ConnRef>& connections, double delay_seconds);

/// Fig. 12 generalized: wait for connection setup (FEATURES_REPLY) on
/// `connection`, then wait for a message of `trigger_type`, then black-hole
/// the connection. Three chained states σ1 → σ2 → σ3.
std::string interrupt_after(const ConnRef& connection, const std::string& trigger_type);

/// Stochastic extension: drop each message on `connection` independently
/// with probability `percent`/100 (uses the rand() extension; requires only
/// DROPMESSAGE + PASSMESSAGE, so it compiles under Γ_TLS).
std::string stochastic_drop(const ConnRef& connection, unsigned percent);

/// Fuzz every message of `message_type` on `connection` with `bit_flips`
/// random bit flips (semantically invalid mutation — FUZZMESSAGE).
std::string fuzz_type(const ConnRef& connection, const std::string& message_type,
                      unsigned bit_flips);

/// Replay amplifier: capture the first message of `message_type`, then
/// re-send it `replay_count` extra times whenever another message of that
/// type passes (flooding via storage, §VIII-A).
std::string replay_amplifier(const ConnRef& connection, const std::string& message_type,
                             unsigned replay_count);

}  // namespace attain::dsl::templates
