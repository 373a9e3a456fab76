#include "support/enterprise_fixtures.hpp"

#include <sstream>

namespace attain::scenario {

std::string enterprise_model_dsl(const EnterpriseOptions& options) {
  std::ostringstream out;
  out << "system {\n";
  out << "  controller c1 { ip \"10.0.100.1\"; port 6633; }\n";
  auto sw = [&](const char* name, int dpid, bool secure) {
    out << "  switch " << name << " { dpid " << dpid << "; ports 4; fail_mode "
        << (secure ? "secure" : "safe") << "; }\n";
  };
  sw("s1", 1, options.others_fail_secure);
  sw("s2", 2, options.s2_fail_secure);
  sw("s3", 3, options.others_fail_secure);
  sw("s4", 4, options.others_fail_secure);
  for (int n = 1; n <= 6; ++n) {
    out << "  host h" << n << " { mac \"00:00:00:00:00:0" << n << "\"; ip \"10.0.0." << n
        << "\"; }\n";
  }
  out << "  link h1 -- s1:1;\n  link h2 -- s1:2;\n  link s1:3 -- s2:1;\n";
  out << "  link s2:2 -- s3:1;\n  link h3 -- s3:2;\n  link h4 -- s3:3;\n";
  out << "  link s3:4 -- s4:1;\n  link h5 -- s4:2;\n  link h6 -- s4:3;\n";
  const char* tls = options.tls ? " tls" : "";
  for (int n = 1; n <= 4; ++n) out << "  connection c1 -> s" << n << tls << ";\n";
  out << "}\n";
  return out.str();
}

LinkFabricationAttack make_link_fabrication_attack(const topo::SystemModel& model,
                                                   const std::string& sw_a, std::uint16_t port_a,
                                                   const std::string& sw_b,
                                                   std::uint16_t port_b) {
  using namespace lang;
  const EntityId c1 = model.require("c1");
  const EntityId a = model.require(sw_a);
  const EntityId b = model.require(sw_b);
  const std::uint64_t dpid_a = model.switch_at(a).dpid;
  const std::uint64_t dpid_b = model.switch_at(b).dpid;

  // The forged PACKET_IN delivered on (c1, target): "an LLDP probe from
  // (origin_dpid, origin_port) arrived at my port `in_port`".
  auto forged_packet_in = [](std::uint64_t origin_dpid, std::uint16_t origin_port,
                             std::uint16_t in_port) {
    ofp::PacketIn pin;
    pin.buffer_id = ofp::kNoBuffer;
    pin.in_port = in_port;
    pin.reason = ofp::PacketInReason::NoMatch;
    pin.data = pkt::Frame(pkt::make_lldp(
        pkt::MacAddress::from_u64((origin_dpid << 8) | origin_port), origin_dpid, origin_port));
    pin.total_len = static_cast<std::uint16_t>(pin.data.size());
    return ofp::make_message(0, std::move(pin));
  };

  // One rule per direction, each firing exactly once (guarded by a flag
  // deque). The trigger is the switch's first ECHO_REQUEST: by then the
  // handshake is complete, so the controller can attribute the forged
  // PACKET_IN to the right datapath.
  auto make_rule = [&](const std::string& name, EntityId sw, const std::string& flag,
                       ofp::Message forged) {
    Rule rule;
    rule.name = name;
    rule.connection = ConnectionId{c1, sw};
    rule.conditional = Expr::binary(
        BinaryOp::And,
        Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type),
                     Expr::literal_int(static_cast<std::int64_t>(ofp::MsgType::EchoRequest))),
        Expr::binary(BinaryOp::Eq, Expr::deque_len(flag), Expr::literal_int(0)));
    ActInject inject;
    inject.message = std::move(forged);
    inject.direction = Direction::SwitchToController;
    rule.actions.push_back(std::move(inject));
    rule.actions.push_back(ActAppend{flag, Expr::literal_int(1)});
    return rule;
  };

  LinkFabricationAttack result;
  result.attack.name = "lldp_link_fabrication";
  result.attack.start_state = "forging";
  result.attack.deques.emplace_back("done_a", std::vector<Value>{});
  result.attack.deques.emplace_back("done_b", std::vector<Value>{});
  AttackState state;
  state.name = "forging";
  // Link b -> a is announced via a PACKET_IN on (c1, a), and vice versa.
  state.rules.push_back(
      make_rule("forge_on_a", a, "done_a", forged_packet_in(dpid_b, port_b, port_a)));
  state.rules.push_back(
      make_rule("forge_on_b", b, "done_b", forged_packet_in(dpid_a, port_a, port_b)));
  result.attack.states.push_back(std::move(state));

  result.capabilities.grant(ConnectionId{c1, a}, model::CapabilitySet::no_tls());
  result.capabilities.grant(ConnectionId{c1, b}, model::CapabilitySet::no_tls());
  return result;
}

}  // namespace attain::scenario
