#include "attain/dsl/templates.hpp"

#include <sstream>

namespace attain::dsl::templates {

namespace {

std::string grant_block(const std::vector<ConnRef>& connections, const std::string& grant) {
  std::ostringstream out;
  out << "attacker {\n";
  for (const ConnRef& conn : connections) {
    out << "  on (" << conn.controller << ", " << conn.sw << ") grant " << grant << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace

std::string suppress_type(const std::vector<ConnRef>& connections,
                          const std::string& message_type) {
  std::ostringstream out;
  out << grant_block(connections, "no_tls");
  out << "attack suppress_" << message_type << " {\n  start state sigma1 {\n";
  unsigned index = 1;
  for (const ConnRef& conn : connections) {
    out << "    rule phi" << index++ << " on (" << conn.controller << ", " << conn.sw << ") {\n"
        << "      requires { ReadMessage, DropMessage };\n"
        << "      when msg.type == " << message_type << ";\n"
        << "      do { drop(msg); }\n    }\n";
  }
  out << "  }\n}\n";
  return out.str();
}

std::string count_gate(const ConnRef& connection, const std::string& message_type,
                       unsigned count) {
  std::ostringstream out;
  out << grant_block({connection}, "no_tls");
  out << "attack count_gate_" << count << " {\n"
      << "  deque counter = [0];\n"
      << "  start state gate {\n"
      // gate before tally: the message that reaches the threshold passes.
      << "    rule gate on (" << connection.controller << ", " << connection.sw << ") {\n"
      << "      when msg.type == " << message_type << " and examine_front(counter) >= " << count
      << ";\n"
      << "      do { drop(msg); }\n    }\n"
      << "    rule tally on (" << connection.controller << ", " << connection.sw << ") {\n"
      << "      when msg.type == " << message_type << " and examine_front(counter) < " << count
      << ";\n"
      << "      do { pass(msg); prepend(counter, examine_front(counter) + 1); }\n    }\n"
      << "  }\n}\n";
  return out.str();
}

std::string delay_all(const std::vector<ConnRef>& connections, double delay_seconds) {
  std::ostringstream out;
  out << grant_block(connections, "tls");  // delay needs no payload access
  out << "attack delay_all {\n  start state sigma1 {\n";
  unsigned index = 1;
  for (const ConnRef& conn : connections) {
    out << "    rule phi" << index++ << " on (" << conn.controller << ", " << conn.sw << ") {\n"
        << "      requires { ReadMessageMetadata, DelayMessage };\n"
        << "      when msg.length >= 0;\n"
        << "      do { delay(msg, " << delay_seconds << " s); }\n    }\n";
  }
  out << "  }\n}\n";
  return out.str();
}

std::string interrupt_after(const ConnRef& connection, const std::string& trigger_type) {
  std::ostringstream out;
  const std::string on = "on (" + connection.controller + ", " + connection.sw + ")";
  out << grant_block({connection}, "no_tls");
  out << "attack interrupt_after_" << trigger_type << " {\n"
      << "  start state sigma1 {\n"
      << "    rule phi1 " << on << " {\n"
      << "      when msg.type == FEATURES_REPLY;\n"
      << "      do { pass(msg); goto(sigma2); }\n    }\n  }\n"
      << "  state sigma2 {\n"
      << "    rule phi2 " << on << " {\n"
      << "      when msg.type == " << trigger_type << ";\n"
      << "      do { drop(msg); goto(sigma3); }\n    }\n  }\n"
      << "  state sigma3 {\n"
      << "    rule phi3 " << on << " {\n"
      << "      when msg.length >= 0;\n"
      << "      do { drop(msg); }\n    }\n  }\n}\n";
  return out.str();
}

std::string stochastic_drop(const ConnRef& connection, unsigned percent) {
  std::ostringstream out;
  out << grant_block({connection}, "tls");
  out << "attack stochastic_drop_" << percent << " {\n  start state sigma1 {\n"
      << "    rule coin on (" << connection.controller << ", " << connection.sw << ") {\n"
      << "      requires { DropMessage };\n"
      << "      when rand(100) < " << percent << ";\n"
      << "      do { drop(msg); }\n    }\n  }\n}\n";
  return out.str();
}

std::string fuzz_type(const ConnRef& connection, const std::string& message_type,
                      unsigned bit_flips) {
  std::ostringstream out;
  out << grant_block({connection}, "no_tls");
  out << "attack fuzz_" << message_type << " {\n  start state sigma1 {\n"
      << "    rule mangle on (" << connection.controller << ", " << connection.sw << ") {\n"
      << "      requires { ReadMessage, FuzzMessage };\n"
      << "      when msg.type == " << message_type << ";\n"
      << "      do { fuzz(msg, " << bit_flips << "); }\n    }\n  }\n}\n";
  return out.str();
}

std::string replay_amplifier(const ConnRef& connection, const std::string& message_type,
                             unsigned replay_count) {
  std::ostringstream out;
  const std::string on = "on (" + connection.controller + ", " + connection.sw + ")";
  out << grant_block({connection}, "no_tls");
  out << "attack replay_amplifier {\n"
      << "  deque batch;\n"
      << "  start state amplifying {\n"
      // amplify first: the captured message itself must not be amplified
      // in the same pass (rules share storage and run in order).
      << "    rule amplify " << on << " {\n"
      << "      when msg.type == " << message_type << " and len(batch) >= 1;\n"
      << "      do { pass(msg); ";
  // peek_send keeps the stored message, so every later trigger replays it
  // again; the DSL has no loops, so the factor is unrolled.
  for (unsigned i = 0; i < replay_count; ++i) {
    out << "peek_send_front(batch); ";
  }
  out << "}\n    }\n"
      << "    rule capture " << on << " {\n"
      << "      when msg.type == " << message_type << " and len(batch) < 1;\n"
      << "      do { pass(msg); append(batch, msg); }\n"
      << "    }\n  }\n}\n";
  return out.str();
}

}  // namespace attain::dsl::templates
