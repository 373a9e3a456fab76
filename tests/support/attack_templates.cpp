#include "support/attack_templates.hpp"

#include <sstream>

namespace attain::dsl::templates {

std::string packet_in_flood(const ConnRef& connection, const std::string& trigger_type,
                            unsigned burst) {
  std::ostringstream out;
  const std::string on = "on (" + connection.controller + ", " + connection.sw + ")";
  out << "attacker {\n  " << on << " grant no_tls;\n}\n";
  out << "attack packet_in_flood {\n"
      << "  start state flooding {\n"
      << "    rule amplify " << on << " {\n"
      << "      requires { ReadMessage, PassMessage, InjectNewMessage };\n"
      << "      when msg.type == " << trigger_type << ";\n"
      << "      do { pass(msg); ";
  // No loops in the DSL: the amplification factor is unrolled, exactly as
  // replay_amplifier unrolls its replay count.
  for (unsigned i = 0; i < burst; ++i) {
    out << "inject(packet_in, to_controller); ";
  }
  out << "}\n    }\n  }\n}\n";
  return out.str();
}

}  // namespace attain::dsl::templates
