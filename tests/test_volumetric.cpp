// Volumetric experiments and the topology-parametric scenario API:
// determinism of generated-topology sweep cells across thread counts and
// warm-start modes (the acceptance contract), flood observables per
// volumetric kind, the GridBuilder wrappers' fidelity to the legacy grid
// functions, and Options round-trips through JSON and the binary result
// format.
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/log.hpp"
#include "scenario/experiment.hpp"
#include "sweep/sweep.hpp"
#include "topo/generators.hpp"

namespace attain {
namespace {

using scenario::ControllerKind;
using scenario::ExperimentKind;
using scenario::GridBuilder;
using scenario::RunSpec;
using scenario::VolumetricKind;

/// A quick fat-tree(4) flood cell: 2 s flood window keeps the probe script
/// (and hence the simulated horizon) short.
RunSpec quick_flood(VolumetricKind kind, bool attack) {
  RunSpec spec;
  spec.experiment = ExperimentKind::Volumetric;
  spec.controller = ControllerKind::Pox;
  spec.attack_enabled = attack;
  spec.volumetric = kind;
  spec.topology = topo::TopologySpec::fat_tree(4);
  spec.flood_flows = 64;
  spec.flood_duration = 2 * kSecond;
  spec.flood_batch = 500 * kMillisecond;
  return spec;
}

const scenario::VolumetricResult& as_volumetric(const scenario::RunResultPtr& r) {
  return dynamic_cast<const scenario::VolumetricResult&>(*r);
}

// ---------------------------------------------------------------------------
// The acceptance contract: a fat-tree PACKET_IN-flood sweep is
// byte-identical on 1 and N threads, warm or cold.
// ---------------------------------------------------------------------------

TEST(VolumetricSweep, FatTreeFloodIsThreadCountInvariant) {
  const std::vector<RunSpec> grid = GridBuilder()
                                        .volumetric(VolumetricKind::PacketInFlood)
                                        .controllers({ControllerKind::Pox})
                                        .topology(topo::TopologySpec::fat_tree(4))
                                        .flood(64, 2 * kSecond, 500 * kMillisecond)
                                        .build();
  ASSERT_EQ(grid.size(), 2u);  // baseline + attack

  auto run_with = [&grid](unsigned threads, bool warm) {
    sweep::SweepOptions options;
    options.threads = threads;
    options.warm_start = warm;
    return sweep::SweepRunner(options).run(grid).results_json();
  };
  const std::string serial = run_with(1, false);
  EXPECT_EQ(serial, run_with(4, false));
  EXPECT_EQ(serial, run_with(1, true));
  EXPECT_EQ(serial, run_with(4, true));
}

// ---------------------------------------------------------------------------
// No flood before the network exists: volumetric cells connect their
// switches at t = 1 s, and a flood that starts while they still forward
// standalone is learned and flooded around the fat-tree's loops (a scratch
// run of this cell shape at 0.75 s and 1 s counted 16-20 M table misses,
// and all 20 switches lost their controller).
// ---------------------------------------------------------------------------

TEST(Volumetric, FloodStartsBeforeTheSwitchesSettleAreRejected) {
  GridBuilder builder;
  builder.volumetric(VolumetricKind::PacketInFlood)
      .controllers({ControllerKind::Pox})
      .topology(topo::TopologySpec::fat_tree(4))
      .attack_starts({scenario::kEarliestVolumetricStart - kMillisecond});
  EXPECT_THROW(builder.build(), std::invalid_argument);
  builder.attack_starts({scenario::kEarliestVolumetricStart});
  EXPECT_EQ(builder.build().size(), 2u);  // baseline + the earliest start

  RunSpec early = quick_flood(VolumetricKind::PacketInFlood, true);
  early.attack_start = kSecond;
  EXPECT_THROW(scenario::run(early), std::invalid_argument);
}

TEST(Volumetric, FloodAtTheEarliestStartLeavesEverySwitchConnected) {
  std::vector<std::string> lost;
  const Logger::Sink previous = Logger::instance().set_sink([&lost](const LogRecord& record) {
    if (record.message.find("controller connection lost") != std::string::npos) {
      lost.push_back(record.component);
    }
  });
  RunSpec spec = quick_flood(VolumetricKind::PacketInFlood, true);
  spec.attack_start = scenario::kEarliestVolumetricStart;
  const auto result = scenario::run(spec);
  Logger::instance().set_sink(previous);

  EXPECT_EQ(lost, std::vector<std::string>{}) << "switches that fell back to standalone";
  EXPECT_EQ(as_volumetric(result).flood_packets_injected, 8u * 64u);
}

// ---------------------------------------------------------------------------
// Flood observables per kind.
// ---------------------------------------------------------------------------

TEST(Volumetric, PacketInFloodProvokesControlPlaneStorm) {
  const auto baseline = scenario::run(quick_flood(VolumetricKind::PacketInFlood, false));
  const auto attack = scenario::run(quick_flood(VolumetricKind::PacketInFlood, true));
  const auto& base = as_volumetric(baseline);
  const auto& hot = as_volumetric(attack);

  EXPECT_EQ(base.flood_packets_injected, 0u);
  // fat-tree(4): 8 edge switches x 64 flows, spread over the batches.
  EXPECT_EQ(hot.flood_packets_injected, 8u * 64u);
  // The fat-tree's multipath loops keep the baseline noisy with flooded ARP
  // traffic, so compare on FLOW_MOD installs: every spoofed flow targets the
  // already-learned probe host and draws an exact-match install, which the
  // broadcast noise never does.
  EXPECT_GT(hot.flow_mods_observed, base.flow_mods_observed);
  EXPECT_NE(hot.packet_ins, base.packet_ins);
  EXPECT_EQ(hot.topology_id, "fat-tree/k4");
  // The probe still ran on both sides.
  EXPECT_GT(base.probe.sent(), 0u);
  EXPECT_GT(hot.probe.sent(), 0u);
}

TEST(Volumetric, SlowRateResendsTheFlowSetEveryBatch) {
  RunSpec spec = quick_flood(VolumetricKind::SlowRate, true);
  const auto run = scenario::run(spec);
  const auto& result = as_volumetric(run);
  // 4 batches (2 s / 500 ms), each re-sending all 64 flows per edge switch.
  EXPECT_EQ(result.flood_packets_injected, 8u * 64u * 4u);
}

TEST(Volumetric, TableOverflowAgainstCappedTablesDrawsRejections) {
  RunSpec spec = quick_flood(VolumetricKind::TableOverflow, true);
  spec.table_capacity = 4;
  const auto run = scenario::run(spec);
  const auto& result = as_volumetric(run);
  // Every switch's table is capped, so the summed occupancy can never
  // exceed switches x capacity (fat-tree(4): 20 switches).
  EXPECT_LE(result.table_entries_peak, 20u * 4u);
  // The flood pushes far more distinct flows than the cap admits.
  EXPECT_GT(result.flow_mods_rejected, 0u);
}

TEST(Volumetric, LeafSpineCellsRunToCompletion) {
  RunSpec spec = quick_flood(VolumetricKind::PacketInFlood, true);
  spec.topology = topo::TopologySpec::leaf_spine(2, 4, 4);
  const auto run = scenario::run(spec);
  const auto& result = as_volumetric(run);
  EXPECT_EQ(result.topology_id, "leaf-spine/2x4x4");
  // 4 leaves x 64 flows.
  EXPECT_EQ(result.flood_packets_injected, 4u * 64u);
}

TEST(Volumetric, ProbeSucceedsOnLoopFreeFabrics) {
  // A single-spine leaf-spine is a tree: flood-based L2 learning converges
  // and the starvation probe measures real reachability. On multipath
  // fabrics (2+ spines, any fat-tree) flooded ARP copies arrive over
  // redundant paths and flap the learned MAC tables, so the probe reports
  // total loss there — deterministic, and faithful to what flood-based
  // learning controllers do on loopy topologies.
  RunSpec spec = quick_flood(VolumetricKind::PacketInFlood, false);
  spec.topology = topo::TopologySpec::leaf_spine(1, 4, 4);
  const auto run = scenario::run(spec);
  const auto& result = as_volumetric(run);
  EXPECT_GT(result.probe.sent(), 0u);
  EXPECT_EQ(result.probe.received(), result.probe.sent());
}

TEST(Volumetric, EnterpriseExperimentsRejectGeneratedTopologies) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.topology = topo::TopologySpec::fat_tree(4);
  EXPECT_THROW(scenario::run(spec), std::invalid_argument);
  spec.experiment = ExperimentKind::ConnectionInterruption;
  EXPECT_THROW(scenario::run(spec), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GridBuilder and the legacy wrappers.
// ---------------------------------------------------------------------------

std::string grid_json(const std::vector<RunSpec>& grid) {
  std::string out;
  for (const RunSpec& spec : grid) out += spec.to_json() + "\n";
  return out;
}

TEST(GridBuilder, Table2WrapperMatchesTheFluentForm) {
  const auto fluent =
      GridBuilder().experiment(ExperimentKind::ConnectionInterruption).build();
  EXPECT_EQ(grid_json(scenario::table2_grid()), grid_json(fluent));
  EXPECT_EQ(fluent.size(), 6u);  // 3 controllers x {fail-safe, fail-secure}
}

TEST(GridBuilder, Fig11WrapperMatchesTheFluentForm) {
  const auto fluent = GridBuilder()
                          .experiment(ExperimentKind::FlowModSuppression)
                          .workload(10, 2, kSecond, kSecond)
                          .build();
  EXPECT_EQ(grid_json(scenario::fig11_grid(10, 2, kSecond, kSecond)), grid_json(fluent));
  EXPECT_EQ(fluent.size(), 6u);  // 3 controllers x {baseline, attack}
}

TEST(GridBuilder, CampaignWrapperMatchesTheFluentForm) {
  const std::vector<SimTime> starts{seconds(5), seconds(35)};
  const auto fluent = GridBuilder()
                          .experiment(ExperimentKind::FlowModSuppression)
                          .workload(10, 2, kSecond, kSecond)
                          .attack_starts(starts)
                          .build();
  EXPECT_EQ(grid_json(scenario::fig11_campaign_grid(starts, 10, 2, kSecond, kSecond)),
            grid_json(fluent));
  // Per controller: one baseline + one attack cell per start.
  EXPECT_EQ(fluent.size(), 3u * (1u + starts.size()));
}

TEST(GridBuilder, TopologyAxisMultipliesTheGrid) {
  const auto grid = GridBuilder()
                        .volumetric(VolumetricKind::PacketInFlood)
                        .volumetric(VolumetricKind::TableOverflow)
                        .controllers({ControllerKind::Pox, ControllerKind::Ryu})
                        .topology(topo::TopologySpec::fat_tree(4))
                        .topology(topo::TopologySpec::leaf_spine(2, 4, 4))
                        .build();
  // 2 topologies x 2 controllers x 2 kinds x {baseline, attack}.
  EXPECT_EQ(grid.size(), 16u);
  for (const RunSpec& spec : grid) {
    EXPECT_EQ(spec.experiment, ExperimentKind::Volumetric);
  }
}

// ---------------------------------------------------------------------------
// Options round-trips.
// ---------------------------------------------------------------------------

TEST(Options, DefaultOptionsKeepTheSeedJsonShape) {
  RunSpec spec;
  spec.experiment = ExperimentKind::ConnectionInterruption;
  spec.options.fail_secure = true;
  const std::string json = spec.to_json();
  // The interruption knob keeps its historical key; the options object only
  // appears for non-default engine/extras settings.
  EXPECT_NE(json.find("\"s2_fail_secure\":true"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"options\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"topology\""), std::string::npos) << json;
}

TEST(Options, NonDefaultOptionsAppearInSpecJson) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.options.use_compiled = false;
  const std::string json = spec.to_json();
  EXPECT_NE(json.find("\"use_compiled\":false"), std::string::npos) << json;
}

TEST(Options, RoundTripThroughBinaryResults) {
  scenario::VolumetricResult result;
  result.controller = ControllerKind::Ryu;
  result.attack_enabled = true;
  result.options.fail_secure = true;
  result.options.use_compiled = false;
  result.options.extended_control_channel_json = true;
  result.volumetric = VolumetricKind::TableOverflow;
  result.topology_id = "fat-tree/k4";
  result.flood_packets_injected = 512;
  result.flow_mods_rejected = 7;
  result.table_entries_peak = 80;
  result.rules_skipped_by_guard = 3;
  result.probe.trials.push_back({7, seconds(3), std::nullopt});
  result.probe.trials.push_back({8, seconds(4), 250 * kMicrosecond});

  ByteWriter w;
  scenario::save_result(result, w);
  ByteReader r(w.bytes());
  const scenario::RunResultPtr loaded = scenario::load_result(r);
  const auto& v = dynamic_cast<const scenario::VolumetricResult&>(*loaded);
  EXPECT_EQ(v.options.fail_secure, true);
  EXPECT_EQ(v.options.use_compiled, false);
  EXPECT_EQ(v.options.extended_control_channel_json, true);
  EXPECT_EQ(v.volumetric, VolumetricKind::TableOverflow);
  EXPECT_EQ(v.topology_id, "fat-tree/k4");
  EXPECT_EQ(v.flood_packets_injected, 512u);
  EXPECT_EQ(v.flow_mods_rejected, 7u);
  EXPECT_EQ(v.table_entries_peak, 80u);
  EXPECT_EQ(v.to_json(), result.to_json());
  ByteWriter again;
  scenario::save_result(v, again);
  EXPECT_EQ(again.bytes(), w.bytes());
}

}  // namespace
}  // namespace attain
