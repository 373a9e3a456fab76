#include "scenario/enterprise.hpp"

#include <sstream>

#include "topo/generators.hpp"

namespace attain::scenario {

topo::SystemModel make_enterprise_model(const EnterpriseOptions& options) {
  // The Fig. 8 wiring itself lives in topo/generators.cpp now, behind
  // TopologySpec::enterprise(); this wrapper keeps the historical entry
  // point and its option names.
  topo::BuildOptions build;
  build.chokepoint_fail_secure = options.s2_fail_secure;
  build.others_fail_secure = options.others_fail_secure;
  build.tls = options.tls;
  return topo::build_model(topo::TopologySpec::enterprise(), build);
}

namespace {

std::string grant_all_block() {
  return "attacker {\n"
         "  on (c1, s1) grant no_tls;\n"
         "  on (c1, s2) grant no_tls;\n"
         "  on (c1, s3) grant no_tls;\n"
         "  on (c1, s4) grant no_tls;\n"
         "}\n";
}

}  // namespace

std::string flow_mod_suppression_dsl() {
  std::ostringstream out;
  out << grant_all_block();
  out << "attack flow_mod_suppression {\n";
  out << "  start state sigma1 {\n";
  for (int n = 1; n <= 4; ++n) {
    out << "    rule phi" << n << " on (c1, s" << n << ") {\n"
        << "      requires { ReadMessage, DropMessage };\n"
        << "      when msg.type == FLOW_MOD;\n"
        << "      do { drop(msg); }\n"
        << "    }\n";
  }
  out << "  }\n}\n";
  return out.str();
}

std::string connection_interruption_dsl() {
  std::ostringstream out;
  out << grant_all_block();
  out << "attack connection_interruption {\n"
      << "  start state sigma1 {\n"
      << "    rule phi1 on (c1, s2) {\n"
      << "      requires { ReadMessage, PassMessage };\n"
      << "      when msg.type == FEATURES_REPLY;\n"
      << "      do { pass(msg); goto(sigma2); }\n"
      << "    }\n"
      << "  }\n"
      << "  state sigma2 {\n"
      << "    rule phi2 on (c1, s2) {\n"
      << "      requires { ReadMessage, DropMessage };\n"
      << "      when msg.type == FLOW_MOD and msg.field(\"match.nw_src\") == ip(h2)\n"
      << "           and msg.field(\"match.nw_dst\") in { ip(h3), ip(h4), ip(h5), ip(h6) };\n"
      << "      do { drop(msg); goto(sigma3); }\n"
      << "    }\n"
      << "  }\n"
      << "  state sigma3 {\n"
      << "    rule phi3 on (c1, s2) {\n"
      << "      requires { ReadMessageMetadata, DropMessage };\n"
      << "      when msg.length >= 0;\n"
      << "      do { drop(msg); }\n"
      << "    }\n"
      << "  }\n"
      << "}\n";
  return out.str();
}

std::string trivial_pass_all_dsl() {
  return "attack trivial_pass_all {\n"
         "  start state sigma1;\n"  // a state with no rules: all messages pass
         "}\n";
}

}  // namespace attain::scenario
