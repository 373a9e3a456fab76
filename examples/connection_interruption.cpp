// Case study §VII-C: the connection interruption attack (Fig. 12) against
// the DMZ firewall switch, fail-safe vs fail-secure, reproducing Table II.
//
// Build & run:  ./connection_interruption
#include <cstdio>

#include "attain/dsl/codegen.hpp"
#include "attain/dsl/parser.hpp"
#include "scenario/experiment.hpp"

using namespace attain;
using namespace attain::scenario;

int main() {
  std::printf("ATTAIN case study: connection interruption (paper §VII-C)\n\n");

  // Show the compiled artifact for the attack under test.
  const topo::SystemModel model = make_enterprise_model();
  const dsl::Document doc = dsl::parse_document(connection_interruption_dsl(), model);
  const dsl::CompiledAttack attack = dsl::compile(doc.attacks.at(0), model, doc.capabilities);
  std::printf("%s\n", dsl::generate_listing(attack, model).c_str());

  std::vector<InterruptionResult> results;
  for (const ControllerKind kind :
       {ControllerKind::Floodlight, ControllerKind::Pox, ControllerKind::Ryu}) {
    for (const bool secure : {false, true}) {
      RunSpec spec;
      spec.experiment = ExperimentKind::ConnectionInterruption;
      spec.controller = kind;
      spec.options.fail_secure = secure;
      const RunResultPtr result = run(spec);
      const auto& r = dynamic_cast<const InterruptionResult&>(*result);
      results.push_back(r);
      std::printf("%s / %-11s : attack %s sigma3\n", to_string(kind).c_str(),
                  secure ? "fail-secure" : "fail-safe",
                  r.attack_reached_sigma3 ? "reached" : "did not reach");
    }
  }

  std::printf("\n%s\n", render_table2(results).c_str());
  std::printf(
      "Reading the table like the paper does:\n"
      " * fail-safe + interruption  -> unauthorized increased access (row 3 'yes')\n"
      " * fail-secure + interruption -> denial of service for legit traffic (row 4 'no')\n"
      " * Ryu never triggers phi2 (its FLOW_MOD match wildcards nw_src/nw_dst), so\n"
      "   neither effect appears in its columns.\n");
  return 0;
}
