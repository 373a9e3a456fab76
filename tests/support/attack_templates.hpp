// DSL attack templates only the tests instantiate (the library's templates
// live in attain/dsl/templates.hpp).
#pragma once

#include <string>

#include "attain/dsl/templates.hpp"

namespace attain::dsl::templates {

/// Volumetric PACKET_IN flood: every passing message of `trigger_type` on
/// `connection` is amplified into `burst` canned table-miss PACKET_INs
/// injected toward the controller (the scenario-level flood's control-
/// plane-only sibling — no data-plane frames involved). Uses the
/// `packet_in` inject template; requires InjectNewMessage.
std::string packet_in_flood(const ConnRef& connection, const std::string& trigger_type,
                            unsigned burst);

}  // namespace attain::dsl::templates
