// Enterprise-network fixtures the tests share but no experiment runs: the
// Fig. 8 model as DSL source, and the LLDP link-fabrication attack built in
// C++ (scenario/enterprise.hpp holds the case study itself).
#pragma once

#include <cstdint>
#include <string>

#include "attain/lang/attack.hpp"
#include "attain/model/capabilities.hpp"
#include "scenario/enterprise.hpp"
#include "topo/system_model.hpp"

namespace attain::scenario {

/// The make_enterprise_model() network in DSL form (round-trips through
/// the parser).
std::string enterprise_model_dsl(const EnterpriseOptions& options = {});

/// The §II-A4 / Hong et al. LLDP link-fabrication attack, expressible in
/// the ATTAIN language as the paper claims: forged LLDP PACKET_INs are
/// injected (INJECTNEWMESSAGE) on the (c1, sw_a) and (c1, sw_b)
/// connections, convincing a discovery-based controller (Floodlight) that
/// a bidirectional link (sw_a:port_a) <-> (sw_b:port_b) exists. Routing
/// then prefers the fake shortcut and forwards into an unwired port —
/// black-hole routing. The injected frames carry crafted data-plane
/// payloads, so this attack is built programmatically (the DSL's inject()
/// templates cover only canned control messages); it returns the
/// in-memory attack plus the capability map it needs.
struct LinkFabricationAttack {
  lang::Attack attack;
  model::CapabilityMap capabilities;
};
LinkFabricationAttack make_link_fabrication_attack(const topo::SystemModel& model,
                                                   const std::string& sw_a,
                                                   std::uint16_t port_a,
                                                   const std::string& sw_b,
                                                   std::uint16_t port_b);

}  // namespace attain::scenario
