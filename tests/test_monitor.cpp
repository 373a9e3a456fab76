#include "attain/monitor/monitor.hpp"

#include <gtest/gtest.h>

namespace attain::monitor {
namespace {

Event observed(ofp::MsgType type, ConnectionId conn, lang::Direction dir) {
  Event e;
  e.kind = EventKind::MessageObserved;
  e.connection = conn;
  e.direction = dir;
  e.message_type = type;
  return e;
}

ConnectionId conn(std::uint32_t sw) {
  return ConnectionId{EntityId{EntityKind::Controller, 0}, EntityId{EntityKind::Switch, sw}};
}

TEST(Monitor, CountsByKind) {
  Monitor mon;
  mon.record(observed(ofp::MsgType::FlowMod, conn(0), lang::Direction::ControllerToSwitch));
  Event drop;
  drop.kind = EventKind::MessageDropped;
  mon.record(drop);
  mon.record(drop);
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 1u);
  EXPECT_EQ(mon.count(EventKind::MessageDropped), 2u);
  EXPECT_EQ(mon.count(EventKind::SysCmd), 0u);
  EXPECT_EQ(mon.events().size(), 3u);
}

TEST(Monitor, CountsByTypeAndConnection) {
  Monitor mon;
  mon.record(observed(ofp::MsgType::FlowMod, conn(0), lang::Direction::ControllerToSwitch));
  mon.record(observed(ofp::MsgType::FlowMod, conn(1), lang::Direction::ControllerToSwitch));
  mon.record(observed(ofp::MsgType::PacketIn, conn(0), lang::Direction::SwitchToController));
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::FlowMod), 2u);
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::PacketIn), 1u);
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::Hello), 0u);
  EXPECT_EQ(mon.observed_on(conn(0), lang::Direction::ControllerToSwitch), 1u);
  EXPECT_EQ(mon.observed_on(conn(0), lang::Direction::SwitchToController), 1u);
  EXPECT_EQ(mon.observed_on(conn(1), lang::Direction::SwitchToController), 0u);
}

TEST(Monitor, CountersOnlyModeDropsEventBodies) {
  Monitor mon;
  mon.set_counters_only(true);
  mon.record(observed(ofp::MsgType::FlowMod, conn(0), lang::Direction::ControllerToSwitch));
  EXPECT_TRUE(mon.events().empty());
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 1u);
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::FlowMod), 1u);
}

TEST(Monitor, EnabledReflectsCountersOnlyMode) {
  Monitor mon;
  // Full mode: every kind is worth constructing an Event for.
  EXPECT_TRUE(mon.enabled(EventKind::EvalError));
  EXPECT_TRUE(mon.enabled(EventKind::MessageObserved));
  mon.set_counters_only(true);
  // Counters-only: MessageObserved still feeds the per-type/per-connection
  // tallies; everything else only needs its kind counted (tally()).
  EXPECT_TRUE(mon.enabled(EventKind::MessageObserved));
  EXPECT_FALSE(mon.enabled(EventKind::EvalError));
  EXPECT_FALSE(mon.enabled(EventKind::RuleMatched));
}

TEST(Monitor, WantsTalliesOnlyWhatItDeclines) {
  Monitor mon;
  // Full mode: every kind is wanted, and wanting counts nothing (the
  // caller's record() does).
  EXPECT_TRUE(mon.wants(EventKind::EvalError));
  EXPECT_TRUE(mon.wants(EventKind::MessageObserved));
  EXPECT_EQ(mon.count(EventKind::EvalError), 0u);
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 0u);
  mon.set_counters_only(true);
  // Counters-only: a declined kind is tallied on the spot.
  EXPECT_FALSE(mon.wants(EventKind::EvalError));
  EXPECT_FALSE(mon.wants(EventKind::RuleMatched));
  EXPECT_FALSE(mon.wants(EventKind::RuleMatched));
  EXPECT_EQ(mon.count(EventKind::EvalError), 1u);
  EXPECT_EQ(mon.count(EventKind::RuleMatched), 2u);
  // MessageObserved is always wanted: its record() feeds the per-type and
  // per-connection counters.
  EXPECT_TRUE(mon.wants(EventKind::MessageObserved));
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 0u);
  EXPECT_TRUE(mon.events().empty());
}

TEST(Monitor, TallyCountsWithoutEventBodies) {
  Monitor mon;
  mon.tally(EventKind::EvalError);
  mon.tally(EventKind::RuleMatched, 5);
  EXPECT_EQ(mon.count(EventKind::EvalError), 1u);
  EXPECT_EQ(mon.count(EventKind::RuleMatched), 5u);
  EXPECT_TRUE(mon.events().empty());
}

TEST(Monitor, ClearResetsEverything) {
  Monitor mon;
  mon.record(observed(ofp::MsgType::FlowMod, conn(0), lang::Direction::ControllerToSwitch));
  mon.clear();
  EXPECT_TRUE(mon.events().empty());
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 0u);
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::FlowMod), 0u);
}

TEST(Monitor, ClearKeepsCachedCellsValid) {
  Monitor mon;
  mon.set_counters_only(true);
  std::uint64_t& cell = mon.observed_cell(conn(0), lang::Direction::ControllerToSwitch);
  mon.tally_observed(ofp::MsgType::FlowMod, cell);
  mon.tally_observed(std::nullopt, cell);
  EXPECT_EQ(mon.observed_on(conn(0), lang::Direction::ControllerToSwitch), 2u);
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::FlowMod), 1u);
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 2u);

  mon.clear();
  EXPECT_EQ(cell, 0u);
  EXPECT_EQ(mon.observed_on(conn(0), lang::Direction::ControllerToSwitch), 0u);
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::FlowMod), 0u);
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 0u);
  EXPECT_EQ(&mon.observed_cell(conn(0), lang::Direction::ControllerToSwitch), &cell);

  // The cached cell still feeds observed_on(), and record() reaches it too.
  mon.tally_observed(ofp::MsgType::PacketIn, cell);
  mon.set_counters_only(false);
  mon.record(observed(ofp::MsgType::PacketIn, conn(0), lang::Direction::ControllerToSwitch));
  EXPECT_EQ(cell, 2u);
  EXPECT_EQ(mon.observed_on(conn(0), lang::Direction::ControllerToSwitch), 2u);
  EXPECT_EQ(mon.observed_on(conn(0), lang::Direction::SwitchToController), 0u);
  EXPECT_EQ(mon.observed_of_type(ofp::MsgType::PacketIn), 2u);
  EXPECT_EQ(mon.count(EventKind::MessageObserved), 2u);
}

}  // namespace
}  // namespace attain::monitor
