// The DSN'17 case study (§VII-A): a small enterprise network with an
// external-facing web server (h1), an Internet gateway (h2), internal
// servers (h3, h4), user workstations (h5, h6), an external switch (s1), a
// DMZ firewall switch (s2), intranet switches (s3, s4), and one controller
// (c1) holding a control-plane connection to every switch (Figs. 8–9).
#pragma once

#include <string>

#include "topo/system_model.hpp"

namespace attain::scenario {

struct EnterpriseOptions {
  /// The DMZ firewall switch's disconnection policy — the Table II knob.
  bool s2_fail_secure{false};
  /// Applied to the other switches (the paper leaves them fail-safe).
  bool others_fail_secure{false};
  /// Mark every control-plane connection TLS (for capability-model tests;
  /// the paper's experiments ran plain TCP).
  bool tls{false};
};

/// Builds and validates the Fig. 8/Fig. 9 system model:
///   s1: h1 on port 1, h2 on port 2, s2 on port 3
///   s2: s1 on port 1, s3 on port 2            (the DMZ chokepoint)
///   s3: s2 on port 1, h3 on port 2, h4 on port 3, s4 on port 4
///   s4: s3 on port 1, h5 on port 2, h6 on port 3
/// Host addressing: hN has IP 10.0.0.N and MAC 00:00:00:00:00:0N.
topo::SystemModel make_enterprise_model(const EnterpriseOptions& options = {});

/// Fig. 10: the flow-modification suppression attack — one state, one rule
/// per control-plane connection, dropping every controller-to-switch
/// FLOW_MOD. Includes the attacker block granting Γ_NoTLS on all four
/// connections.
std::string flow_mod_suppression_dsl();

/// Fig. 12: the connection interruption attack — σ1 waits for (c1, s2)
/// connection setup (FEATURES_REPLY), σ2 waits for a FLOW_MOD whose match
/// says "traffic from h2 to an internal host", σ3 (absorbing) drops every
/// (c1, s2) message. Includes the attacker block.
std::string connection_interruption_dsl();

/// §V-G: the trivial single-state "attack" that passes all messages
/// (normal control-plane operation, Fig. 5).
std::string trivial_pass_all_dsl();

}  // namespace attain::scenario
