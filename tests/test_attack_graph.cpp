#include "attain/lang/attack.hpp"

#include <gtest/gtest.h>

namespace attain::lang {
namespace {

ConnectionId conn0() {
  return ConnectionId{EntityId{EntityKind::Controller, 0}, EntityId{EntityKind::Switch, 0}};
}

Rule make_rule(const std::string& name, std::vector<ActionSpec> actions) {
  Rule rule;
  rule.name = name;
  rule.connection = conn0();
  rule.conditional = Expr::literal_int(1);
  rule.actions = std::move(actions);
  return rule;
}

/// The Fig. 12 shape: σ1 → σ2 → σ3, σ3 absorbing non-end.
Attack three_state_attack() {
  Attack attack;
  attack.name = "interruption_shape";
  attack.start_state = "sigma1";
  AttackState s1;
  s1.name = "sigma1";
  s1.rules.push_back(make_rule("phi1", {ActPass{}, ActGoTo{"sigma2"}}));
  AttackState s2;
  s2.name = "sigma2";
  s2.rules.push_back(make_rule("phi2", {ActDrop{}, ActGoTo{"sigma3"}}));
  AttackState s3;
  s3.name = "sigma3";
  s3.rules.push_back(make_rule("phi3", {ActDrop{}}));
  attack.states = {s1, s2, s3};
  return attack;
}

TEST(Attack, ValidatesWellFormedAttack) {
  EXPECT_NO_THROW(three_state_attack().validate_structure());
}

TEST(Attack, StartStateMustExist) {
  Attack attack = three_state_attack();
  attack.start_state = "nope";
  EXPECT_THROW(attack.validate_structure(), std::invalid_argument);
}

TEST(Attack, AtLeastOneState) {
  Attack attack;
  attack.name = "empty";
  attack.start_state = "s";
  EXPECT_THROW(attack.validate_structure(), std::invalid_argument);
}

TEST(Attack, GotoTargetsMustExist) {
  Attack attack = three_state_attack();
  attack.states[2].rules[0].actions.push_back(ActGoTo{"missing"});
  EXPECT_THROW(attack.validate_structure(), std::invalid_argument);
}

TEST(Attack, DuplicateStateNamesRejected) {
  Attack attack = three_state_attack();
  attack.states.push_back(attack.states[0]);
  EXPECT_THROW(attack.validate_structure(), std::invalid_argument);
}

TEST(Attack, DequeReferencesMustBeDeclared) {
  Attack attack = three_state_attack();
  attack.states[0].rules[0].actions.push_back(ActAppend{"undeclared", Expr::literal_int(1)});
  EXPECT_THROW(attack.validate_structure(), std::invalid_argument);
  attack.deques.emplace_back("undeclared", std::vector<Value>{});
  EXPECT_NO_THROW(attack.validate_structure());
}

TEST(Attack, DequeReferencesInConditionalsChecked) {
  Attack attack = three_state_attack();
  attack.states[0].rules[0].conditional =
      Expr::binary(BinaryOp::Ge, Expr::deque_front("counter"), Expr::literal_int(3));
  EXPECT_THROW(attack.validate_structure(), std::invalid_argument);
}

TEST(Attack, RulesNeedConditionals) {
  Attack attack = three_state_attack();
  attack.states[0].rules[0].conditional = nullptr;
  EXPECT_THROW(attack.validate_structure(), std::invalid_argument);
}

TEST(Attack, AbsorbingAndEndClassification) {
  Attack attack = three_state_attack();
  // σ3 has no outgoing transitions but has rules: absorbing, not end.
  EXPECT_EQ(attack.absorbing_states(), std::vector<std::string>{"sigma3"});
  EXPECT_TRUE(attack.end_states().empty());

  // Add an empty σ_end reachable from σ3.
  AttackState end;
  end.name = "sigma_end";
  attack.states.push_back(end);
  attack.states[2].rules[0].actions.push_back(ActGoTo{"sigma_end"});
  const auto absorbing = attack.absorbing_states();
  EXPECT_EQ(absorbing, std::vector<std::string>{"sigma_end"});
  EXPECT_EQ(attack.end_states(), std::vector<std::string>{"sigma_end"});
  EXPECT_TRUE(attack.find_state("sigma_end")->is_end());
}

TEST(Attack, TrivialSingleStateIsStartAndEnd) {
  // Fig. 5: one rule-less state models normal operation.
  Attack attack;
  attack.name = "trivial";
  attack.start_state = "sigma1";
  AttackState s;
  s.name = "sigma1";
  attack.states.push_back(s);
  EXPECT_NO_THROW(attack.validate_structure());
  EXPECT_EQ(attack.end_states(), std::vector<std::string>{"sigma1"});
}

TEST(Attack, GraphEdgesCarryActionLabels) {
  const Attack attack = three_state_attack();
  const StateGraph graph = attack.graph();
  EXPECT_EQ(graph.vertices.size(), 3u);
  ASSERT_EQ(graph.edges.size(), 2u);
  const auto& e1 = graph.edges[0];
  EXPECT_EQ(e1.from, "sigma1");
  EXPECT_EQ(e1.to, "sigma2");
  // A_{Σ_G}: all actions of the transitioning rule label the edge.
  ASSERT_EQ(e1.action_labels.size(), 2u);
  EXPECT_EQ(e1.action_labels[0], "PassMessage(msg)");
  EXPECT_EQ(e1.action_labels[1], "GoToState(sigma2)");
}

TEST(Attack, SelfLoopGotoIsNotAnEdge) {
  Attack attack = three_state_attack();
  attack.states[2].rules[0].actions.push_back(ActGoTo{"sigma3"});
  EXPECT_NO_THROW(attack.validate_structure());
  EXPECT_EQ(attack.graph().edges.size(), 2u);
  EXPECT_EQ(attack.absorbing_states(), std::vector<std::string>{"sigma3"});
}

TEST(Attack, RequiredCapabilitiesUnionDeclaredAndDerived) {
  Rule rule = make_rule("phi", {ActDrop{}});
  rule.conditional = Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type),
                                  Expr::literal_int(14));
  rule.capabilities = model::CapabilitySet{model::Capability::DelayMessage};  // declared extra
  const model::CapabilitySet required = rule.required_capabilities();
  EXPECT_TRUE(required.contains(model::Capability::DropMessage));     // from action
  EXPECT_TRUE(required.contains(model::Capability::ReadMessage));     // from conditional
  EXPECT_TRUE(required.contains(model::Capability::DelayMessage));    // declared
  EXPECT_FALSE(required.contains(model::Capability::FuzzMessage));
}

}  // namespace
}  // namespace attain::lang
