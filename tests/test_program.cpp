// Unit tests for the compiled rule programs (attain/lang/program.*): guard
// derivation, constant folding, error statuses and their oracle-identical
// messages, and RNG-stream parity with the tree walk. The bulk differential
// check lives in test_program_differential.cpp.
#include "attain/lang/program.hpp"

#include <gtest/gtest.h>

#include "attain/lang/conditional.hpp"
#include "ofp/codec.hpp"

namespace attain::lang {
namespace {

constexpr std::int64_t kFlowMod = static_cast<std::int64_t>(ofp::MsgType::FlowMod);
constexpr std::int64_t kEcho = static_cast<std::int64_t>(ofp::MsgType::EchoRequest);

InFlightMessage make_msg(ofp::Message payload,
                         Direction direction = Direction::ControllerToSwitch) {
  InFlightMessage msg;
  msg.connection = ConnectionId{EntityId{EntityKind::Controller, 0}, EntityId{EntityKind::Switch, 0}};
  msg.direction = direction;
  msg.source = msg.connection.controller;
  msg.destination = msg.connection.sw;
  msg.timestamp = 42;
  msg.id = 7;
  msg.envelope = chan::Envelope(std::move(payload));
  return msg;
}

ofp::Message flow_mod_msg() {
  ofp::FlowMod mod;
  mod.match = ofp::Match::wildcard_all();
  mod.idle_timeout = 10;
  return ofp::make_message(1, std::move(mod));
}

/// Expects that running `expr` compiled produces `status`, and that
/// error_detail() equals what the tree throws for the same context.
void expect_status_matches_oracle(const Expr& expr, const EvalContext& ctx,
                                  ExecStatus expected) {
  const Program program = Program::compile(expr);
  ProgramEvaluator evaluator;
  bool out = false;
  const ExecStatus status = evaluator.run_bool(program, ctx, out);
  EXPECT_EQ(status, expected) << program.disassemble();
  ASSERT_NE(status, ExecStatus::Ok);
  std::string oracle;
  try {
    (void)evaluate_bool(expr, ctx);
    FAIL() << "oracle did not throw for " << expr.to_string();
  } catch (const std::exception& err) {
    oracle = err.what();
  }
  EXPECT_EQ(evaluator.error_detail(program, ctx), oracle);
}

// ---------------------------------------------------------------------------
// Guard derivation.
// ---------------------------------------------------------------------------

TEST(ProgramGuard, TypeEqualityNarrowsToOneType) {
  const auto expr = Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type),
                                 Expr::literal_int(kFlowMod));
  const Program program = Program::compile(*expr);
  const Guard& g = program.guard();
  EXPECT_EQ(g.type_mask, 1u << kFlowMod);
  EXPECT_FALSE(g.undecodable_ok);  // reading msg.type needs a decoded payload
  EXPECT_EQ(g.direction_mask, 0b11);

  EXPECT_TRUE(g.admits(make_msg(flow_mod_msg())));
  EXPECT_FALSE(g.admits(make_msg(ofp::make_message(1, ofp::EchoRequest{}))));
}

TEST(ProgramGuard, AndIntersectsOrUnites) {
  const auto is_flow_mod = Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type),
                                        Expr::literal_int(kFlowMod));
  const auto is_echo =
      Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type), Expr::literal_int(kEcho));

  const Guard g_and = Program::compile(*(is_flow_mod && is_echo)).guard();
  EXPECT_EQ(g_and.type_mask, 0u);  // contradiction: admits nothing decodable

  const Guard g_or = Program::compile(*(is_flow_mod || is_echo)).guard();
  EXPECT_EQ(g_or.type_mask, (1u << kFlowMod) | (1u << kEcho));
}

TEST(ProgramGuard, FieldAccessRequiresCarryingType) {
  // "buffer_id" exists on FLOW_MOD, PACKET_IN, and PACKET_OUT only.
  const auto expr = Expr::binary(BinaryOp::Eq, Expr::field("buffer_id"),
                                 Expr::literal_int(1));
  const Program program = Program::compile(*expr);
  const Guard& g = program.guard();
  EXPECT_FALSE(g.undecodable_ok);
  EXPECT_TRUE((g.type_mask >> static_cast<unsigned>(ofp::MsgType::FlowMod)) & 1u);
  EXPECT_TRUE((g.type_mask >> static_cast<unsigned>(ofp::MsgType::PacketIn)) & 1u);
  EXPECT_FALSE((g.type_mask >> static_cast<unsigned>(ofp::MsgType::EchoRequest)) & 1u);
  EXPECT_FALSE(g.admits(make_msg(ofp::make_message(1, ofp::EchoRequest{}))));
}

TEST(ProgramGuard, UnknownFieldAdmitsNothing) {
  const auto expr = Expr::binary(BinaryOp::Eq, Expr::field("no_such_field"),
                                 Expr::literal_int(1));
  const Program program = Program::compile(*expr);
  const Guard& g = program.guard();
  EXPECT_EQ(g.type_mask, 0u);
  EXPECT_FALSE(g.undecodable_ok);
  EXPECT_FALSE(g.admits(make_msg(flow_mod_msg())));
}

TEST(ProgramGuard, DirectionEqualityNarrowsDirection) {
  const auto expr = Expr::binary(
      BinaryOp::Eq, Expr::prop(Property::Direction),
      Expr::literal_int(static_cast<std::int64_t>(Direction::ControllerToSwitch)));
  const Program program = Program::compile(*expr);
  const Guard& g = program.guard();
  EXPECT_EQ(g.direction_mask,
            1u << static_cast<unsigned>(Direction::ControllerToSwitch));
  EXPECT_TRUE(g.undecodable_ok);  // metadata: readable even under TLS
  EXPECT_TRUE(g.admits(make_msg(flow_mod_msg(), Direction::ControllerToSwitch)));
  EXPECT_FALSE(g.admits(make_msg(flow_mod_msg(), Direction::SwitchToController)));
}

TEST(ProgramGuard, TypeInSetUnitesMemberBits) {
  const auto expr = Expr::in_set(Expr::prop(Property::Type),
                                 {Value{kFlowMod}, Value{kEcho}});
  const Program program = Program::compile(*expr);
  const Guard& g = program.guard();
  EXPECT_EQ(g.type_mask, (1u << kFlowMod) | (1u << kEcho));
}

TEST(ProgramGuard, RandomAlwaysPassesAll) {
  // Skipping a rand()-containing rule would desynchronize the RNG stream
  // between compiled and tree runs, breaking replay byte-identity.
  const auto expr = Expr::binary(
      BinaryOp::And,
      Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type), Expr::literal_int(kFlowMod)),
      Expr::binary(BinaryOp::Lt, Expr::random(10), Expr::literal_int(5)));
  EXPECT_TRUE(Program::compile(*expr).guard().pass_all());
}

TEST(ProgramGuard, SealedPayloadOnlyAdmittedWhenMetadataOnly) {
  InFlightMessage sealed = make_msg(flow_mod_msg());
  sealed.envelope.seal();
  sealed.tls = true;
  ASSERT_EQ(sealed.payload(), nullptr);

  const auto metadata = Expr::binary(BinaryOp::Ge, Expr::prop(Property::Length),
                                     Expr::literal_int(0));
  EXPECT_TRUE(Program::compile(*metadata).guard().admits(sealed));

  const auto payload = Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type),
                                    Expr::literal_int(kFlowMod));
  EXPECT_FALSE(Program::compile(*payload).guard().admits(sealed));
}

// ---------------------------------------------------------------------------
// Compilation: folding, interning, disassembly.
// ---------------------------------------------------------------------------

TEST(ProgramCompile, LiteralExpressionFoldsToOneInstruction) {
  const auto expr =
      Expr::binary(BinaryOp::And,
                   Expr::binary(BinaryOp::Lt, Expr::literal_int(1), Expr::literal_int(2)),
                   Expr::negate(Expr::literal_int(0)));
  const Program program = Program::compile(*expr);
  ASSERT_EQ(program.code().size(), 1u);
  EXPECT_EQ(program.code()[0].op, Instr::Op::PushInt);
  EXPECT_EQ(program.code()[0].imm, 1);
  EXPECT_TRUE(program.guard().pass_all());  // constant true: no narrowing

  ProgramEvaluator evaluator;
  bool out = false;
  EvalContext ctx;  // a constant program needs no message at all
  EXPECT_EQ(evaluator.run_bool(program, ctx, out), ExecStatus::Ok);
  EXPECT_TRUE(out);
}

TEST(ProgramCompile, FieldPathIsInternedToFieldId) {
  const auto expr = Expr::binary(BinaryOp::Eq, Expr::field("match.nw_src"),
                                 Expr::literal_int(0x0a000002));
  const Program program = Program::compile(*expr);
  bool found = false;
  for (const Instr& ins : program.code()) {
    if (ins.op == Instr::Op::PushField) {
      found = true;
      EXPECT_EQ(static_cast<ofp::FieldId>(ins.a), *ofp::field_id("match.nw_src"));
    }
    EXPECT_NE(ins.op, Instr::Op::PushBadField);
  }
  EXPECT_TRUE(found) << program.disassemble();
}

TEST(ProgramCompile, DequeNamesResolveToDeclarationSlots) {
  const std::vector<std::string> deques{"alpha", "beta"};
  Program::CompileEnv env;
  env.deque_names = &deques;
  const auto expr = Expr::binary(BinaryOp::Eq, Expr::deque_len("beta"),
                                 Expr::deque_len("missing"));
  const Program program = Program::compile(*expr, env);
  // "beta" resolves to slot 1; "missing" compiles but can only fail.
  const std::string listing = program.disassemble();
  EXPECT_NE(listing.find("beta@1"), std::string::npos) << listing;
  EXPECT_NE(listing.find("missing@?"), std::string::npos) << listing;
}

TEST(ProgramCompile, DisassembleListsEveryInstruction) {
  const auto expr = Expr::binary(
      BinaryOp::And,
      Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type), Expr::literal_int(kFlowMod)),
      Expr::in_set(Expr::field("buffer_id"), {Value{std::int64_t{1}}, Value{std::int64_t{2}}}));
  const Program program = Program::compile(*expr);
  const std::string listing = program.disassemble();
  EXPECT_NE(listing.find("push_prop"), std::string::npos);
  EXPECT_NE(listing.find("jump_if_false"), std::string::npos);
  EXPECT_NE(listing.find("in_set"), std::string::npos);
}

TEST(ProgramCompile, EmptyProgramReportsBadProgram) {
  const Program empty;
  EXPECT_TRUE(empty.empty());
  ProgramEvaluator evaluator;
  bool out = false;
  EvalContext ctx;
  EXPECT_EQ(evaluator.run_bool(empty, ctx, out), ExecStatus::BadProgram);
}

// ---------------------------------------------------------------------------
// Execution statuses and oracle-identical diagnostics.
// ---------------------------------------------------------------------------

TEST(ProgramErrors, NoMessage) {
  EvalContext ctx;  // no message at all
  expect_status_matches_oracle(*Expr::binary(BinaryOp::Eq, Expr::prop(Property::Id),
                                             Expr::literal_int(0)),
                               ctx, ExecStatus::NoMessage);
}

TEST(ProgramErrors, PayloadUnreadable) {
  InFlightMessage sealed = make_msg(flow_mod_msg());
  sealed.envelope.seal();
  EvalContext ctx;
  ctx.message = &sealed;
  expect_status_matches_oracle(*Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type),
                                             Expr::literal_int(kFlowMod)),
                               ctx, ExecStatus::PayloadUnreadable);
}

TEST(ProgramErrors, FieldAbsentAndUnknown) {
  const InFlightMessage echo = make_msg(ofp::make_message(1, ofp::EchoRequest{}));
  EvalContext ctx;
  ctx.message = &echo;
  // Known path, absent on this type.
  expect_status_matches_oracle(
      *Expr::binary(BinaryOp::Eq, Expr::field("buffer_id"), Expr::literal_int(1)), ctx,
      ExecStatus::FieldAbsent);
  // Unknown path (no type has it).
  expect_status_matches_oracle(
      *Expr::binary(BinaryOp::Eq, Expr::field("bogus"), Expr::literal_int(1)), ctx,
      ExecStatus::FieldAbsent);
}

TEST(ProgramErrors, DequeStatuses) {
  const InFlightMessage msg = make_msg(flow_mod_msg());
  DequeStore storage;
  storage.declare("d", {});

  EvalContext no_storage;
  no_storage.message = &msg;
  expect_status_matches_oracle(*Expr::binary(BinaryOp::Ge, Expr::deque_len("d"),
                                             Expr::literal_int(0)),
                               no_storage, ExecStatus::NoStorage);

  EvalContext ctx;
  ctx.message = &msg;
  ctx.storage = &storage;
  const std::vector<std::string> deques{"d"};
  Program::CompileEnv env;
  env.deque_names = &deques;

  {
    const auto expr = Expr::binary(BinaryOp::Ge, Expr::deque_len("undeclared"),
                                   Expr::literal_int(0));
    const Program program = Program::compile(*expr, env);
    ProgramEvaluator evaluator;
    bool out = false;
    EXPECT_EQ(evaluator.run_bool(program, ctx, out), ExecStatus::DequeUndeclared);
    EXPECT_EQ(evaluator.error_detail(program, ctx), "undeclared deque: undeclared");
  }
  {
    const auto expr = Expr::binary(BinaryOp::Eq, Expr::deque_front("d"),
                                   Expr::literal_int(0));
    const Program program = Program::compile(*expr, env);
    ProgramEvaluator evaluator;
    bool out = false;
    EXPECT_EQ(evaluator.run_bool(program, ctx, out), ExecStatus::DequeEmpty);
    EXPECT_EQ(evaluator.error_detail(program, ctx), "examine_front on empty deque: d");
  }
}

TEST(ProgramErrors, RngStatuses) {
  const InFlightMessage msg = make_msg(flow_mod_msg());
  EvalContext ctx;
  ctx.message = &msg;
  expect_status_matches_oracle(*Expr::binary(BinaryOp::Lt, Expr::random(10),
                                             Expr::literal_int(5)),
                               ctx, ExecStatus::NoRng);
  Rng rng{1};
  ctx.rng = &rng;
  expect_status_matches_oracle(*Expr::binary(BinaryOp::Lt, Expr::random(0),
                                             Expr::literal_int(5)),
                               ctx, ExecStatus::BadRandomBound);
}

TEST(ProgramErrors, TypeMismatchAndNotBoolean) {
  const InFlightMessage msg = make_msg(flow_mod_msg());
  DequeStore storage;
  storage.declare("d", {Value{std::string{"text"}}});
  EvalContext ctx;
  ctx.message = &msg;
  ctx.storage = &storage;
  const std::vector<std::string> deques{"d"};
  Program::CompileEnv env;
  env.deque_names = &deques;

  {
    // "text" < 1 — ordering needs integers.
    const auto expr = Expr::binary(BinaryOp::Lt, Expr::deque_front("d"),
                                   Expr::literal_int(1));
    const Program program = Program::compile(*expr, env);
    ProgramEvaluator evaluator;
    bool out = false;
    EXPECT_EQ(evaluator.run_bool(program, ctx, out), ExecStatus::TypeMismatch);
    std::string oracle;
    try {
      (void)evaluate_bool(*expr, ctx);
      FAIL();
    } catch (const std::exception& err) {
      oracle = err.what();
    }
    EXPECT_EQ(evaluator.error_detail(program, ctx), oracle);
  }
  {
    // A bare string in boolean position.
    const auto expr = Expr::deque_front("d");
    const Program program = Program::compile(*expr, env);
    ProgramEvaluator evaluator;
    bool out = false;
    EXPECT_EQ(evaluator.run_bool(program, ctx, out), ExecStatus::NotBoolean);
    std::string oracle;
    try {
      (void)evaluate_bool(*expr, ctx);
      FAIL();
    } catch (const std::exception& err) {
      oracle = err.what();
    }
    EXPECT_EQ(evaluator.error_detail(program, ctx), oracle);
  }
}

// ---------------------------------------------------------------------------
// Semantics parity spot checks (the fuzz test does this in bulk).
// ---------------------------------------------------------------------------

TEST(ProgramSemantics, ShortCircuitSkipsFailingRightOperand) {
  // false AND <would-throw>: the oracle short-circuits, so must we.
  const InFlightMessage echo = make_msg(ofp::make_message(1, ofp::EchoRequest{}));
  EvalContext ctx;
  ctx.message = &echo;
  const auto expr = Expr::binary(
      BinaryOp::And,
      Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type), Expr::literal_int(kFlowMod)),
      Expr::binary(BinaryOp::Eq, Expr::field("buffer_id"), Expr::literal_int(1)));
  EXPECT_FALSE(evaluate_bool(*expr, ctx));
  const Program program = Program::compile(*expr);
  // The guard rejects the echo (field narrows the type set), but even when
  // forced to run the program must agree with the oracle.
  ProgramEvaluator evaluator;
  bool out = true;
  EXPECT_EQ(evaluator.run_bool(program, ctx, out), ExecStatus::Ok);
  EXPECT_FALSE(out);
}

TEST(ProgramSemantics, EvaluatorIsReusableAcrossProgramsAndErrors) {
  const InFlightMessage msg = make_msg(flow_mod_msg());
  EvalContext ctx;
  ctx.message = &msg;
  ProgramEvaluator evaluator;
  const auto ok_expr = Expr::binary(BinaryOp::Eq, Expr::prop(Property::Type),
                                    Expr::literal_int(kFlowMod));
  const auto bad_expr = Expr::binary(BinaryOp::Eq, Expr::field("reason"),
                                     Expr::literal_int(0));
  const Program ok_program = Program::compile(*ok_expr);
  const Program bad_program = Program::compile(*bad_expr);
  for (int i = 0; i < 100; ++i) {
    bool out = false;
    ASSERT_EQ(evaluator.run_bool(ok_program, ctx, out), ExecStatus::Ok);
    ASSERT_TRUE(out);
    ASSERT_EQ(evaluator.run_bool(bad_program, ctx, out), ExecStatus::FieldAbsent);
  }
}

TEST(ProgramSemantics, RngStreamMatchesOracle) {
  // Same seed, one stream through the tree, one through the program: after
  // evaluation both generators must sit at the same point.
  const InFlightMessage msg = make_msg(flow_mod_msg());
  const auto expr = Expr::binary(
      BinaryOp::Or,
      Expr::binary(BinaryOp::Lt, Expr::random(100), Expr::literal_int(10)),
      Expr::binary(BinaryOp::Ge, Expr::binary(BinaryOp::Add, Expr::random(50), Expr::random(7)),
                   Expr::literal_int(20)));
  Rng tree_rng{12345};
  Rng prog_rng{12345};

  EvalContext tree_ctx;
  tree_ctx.message = &msg;
  tree_ctx.rng = &tree_rng;
  const bool tree_result = evaluate_bool(*expr, tree_ctx);

  EvalContext prog_ctx;
  prog_ctx.message = &msg;
  prog_ctx.rng = &prog_rng;
  const Program program = Program::compile(*expr);
  ProgramEvaluator evaluator;
  bool prog_result = false;
  ASSERT_EQ(evaluator.run_bool(program, prog_ctx, prog_result), ExecStatus::Ok);

  EXPECT_EQ(prog_result, tree_result);
  EXPECT_EQ(tree_rng.next_u64(), prog_rng.next_u64());  // streams in lockstep
}

TEST(ProgramSemantics, RunValueReturnsOracleValue) {
  const InFlightMessage msg = make_msg(flow_mod_msg());
  EvalContext ctx;
  ctx.message = &msg;
  const auto expr = Expr::binary(BinaryOp::Add, Expr::field("idle_timeout"),
                                 Expr::literal_int(5));
  const Program program = Program::compile(*expr);
  ProgramEvaluator evaluator;
  Value out;
  ASSERT_EQ(evaluator.run_value(program, ctx, out), ExecStatus::Ok);
  EXPECT_TRUE(value_equals(out, evaluate(*expr, ctx)));
  EXPECT_EQ(std::get<std::int64_t>(out), 15);
}

}  // namespace
}  // namespace attain::lang
