// Warm-start snapshots: warm-up signature grouping rules, fork-time rules,
// binary result round-trip across the fork's process boundary, and the
// hard guarantee — a forked (warm) cell's JSON is byte-identical to the
// same cell run cold, verified differentially over the full Table II and
// Fig. 11 grids plus an injection-campaign grid. Also: tail results larger
// than a pipe buffer must not deadlock the group.
#include <algorithm>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "scenario/experiment.hpp"
#include "snap/snapshot.hpp"
#include "sweep/sweep.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>

#include "watchdog.hpp"
#endif

namespace attain {
namespace {

using scenario::ControllerKind;
using scenario::ExperimentKind;
using scenario::RunSpec;

RunSpec quick_suppression(ControllerKind kind, bool attack) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.controller = kind;
  spec.attack_enabled = attack;
  spec.ping_trials = 2;
  spec.iperf_trials = 0;
  return spec;
}

RunSpec interruption(ControllerKind kind, bool secure) {
  RunSpec spec;
  spec.experiment = ExperimentKind::ConnectionInterruption;
  spec.controller = kind;
  spec.attack_enabled = true;
  spec.options.fail_secure = secure;
  return spec;
}

// ---------------------------------------------------------------------------
// Signature rules: only fork-time parameters may differ within a group.
// ---------------------------------------------------------------------------

TEST(WarmupSignature, SuppressionCellsDifferingOnlyInAttackParamsShare) {
  const RunSpec baseline = quick_suppression(ControllerKind::Pox, false);
  RunSpec attack = quick_suppression(ControllerKind::Pox, true);
  RunSpec late_attack = attack;
  late_attack.attack_start = seconds(35);
  RunSpec named = attack;
  named.name = "my-cell";

  const auto sig = scenario::warmup_signature(baseline);
  ASSERT_TRUE(sig.has_value());
  EXPECT_EQ(scenario::warmup_signature(attack), sig);
  EXPECT_EQ(scenario::warmup_signature(late_attack), sig);
  EXPECT_EQ(scenario::warmup_signature(named), sig);
}

TEST(WarmupSignature, ControllerAndTrafficChangesDoNotShare) {
  const RunSpec base = quick_suppression(ControllerKind::Pox, false);
  const auto sig = scenario::warmup_signature(base);

  EXPECT_NE(scenario::warmup_signature(quick_suppression(ControllerKind::Ryu, false)), sig);

  RunSpec more_pings = base;
  more_pings.ping_trials = 3;
  EXPECT_NE(scenario::warmup_signature(more_pings), sig);

  RunSpec with_iperf = base;
  with_iperf.iperf_trials = 1;
  EXPECT_NE(scenario::warmup_signature(with_iperf), sig);

  RunSpec longer_iperf = base;
  longer_iperf.iperf_duration = 4 * kSecond;
  EXPECT_NE(scenario::warmup_signature(longer_iperf), sig);

  RunSpec wider_gap = base;
  wider_gap.iperf_gap = 3 * kSecond;
  EXPECT_NE(scenario::warmup_signature(wider_gap), sig);
}

TEST(WarmupSignature, InterruptionSharesAcrossFailModeOnly) {
  const auto sig = scenario::warmup_signature(interruption(ControllerKind::Pox, false));
  ASSERT_TRUE(sig.has_value());
  // The Table II pair: fail-safe vs fail-secure shares one warm-up.
  EXPECT_EQ(scenario::warmup_signature(interruption(ControllerKind::Pox, true)), sig);
  // A different controller, or disarming the attack, changes the prefix.
  EXPECT_NE(scenario::warmup_signature(interruption(ControllerKind::Floodlight, false)), sig);
  RunSpec no_attack = interruption(ControllerKind::Pox, false);
  no_attack.attack_enabled = false;
  EXPECT_NE(scenario::warmup_signature(no_attack), sig);
  // The arm time is part of the interruption prefix (σ1 observes setup).
  RunSpec late = interruption(ControllerKind::Pox, false);
  late.attack_start = seconds(11);
  EXPECT_NE(scenario::warmup_signature(late), sig);
}

TEST(WarmupSignature, CustomCellsNeverGroup) {
  RunSpec spec;
  spec.experiment = ExperimentKind::Custom;
  spec.name = "custom";
  EXPECT_EQ(scenario::warmup_signature(spec), std::nullopt);
}

TEST(WarmupRepresentative, NormalizesForkTimeParameters) {
  RunSpec attack = quick_suppression(ControllerKind::Pox, true);
  attack.attack_start = seconds(35);
  attack.name = "campaign-cell";
  const RunSpec baseline = quick_suppression(ControllerKind::Pox, false);
  EXPECT_EQ(scenario::warmup_representative(attack).to_json(),
            scenario::warmup_representative(baseline).to_json());

  const RunSpec secure = interruption(ControllerKind::Ryu, true);
  EXPECT_FALSE(scenario::warmup_representative(secure).options.fail_secure);
  EXPECT_EQ(scenario::warmup_representative(secure).to_json(),
            scenario::warmup_representative(interruption(ControllerKind::Ryu, false)).to_json());
}

// ---------------------------------------------------------------------------
// Fork-time rules.
// ---------------------------------------------------------------------------

TEST(ForkTime, SuppressionForksAtArmTimeBaselineAtEnd) {
  EXPECT_EQ(scenario::fork_time(quick_suppression(ControllerKind::Pox, true)), seconds(5));
  RunSpec late = quick_suppression(ControllerKind::Pox, true);
  late.attack_start = seconds(35);
  EXPECT_EQ(scenario::fork_time(late), seconds(35));
  // Baseline shares the entire run: ping at t=30 for 2 trials, 5 s guard,
  // no iperf, 2 s drain => t=39 s.
  EXPECT_EQ(scenario::fork_time(quick_suppression(ControllerKind::Pox, false)), seconds(39));
}

TEST(ForkTime, InterruptionForksBeforeFailBitIsRead) {
  EXPECT_EQ(scenario::fork_time(interruption(ControllerKind::Pox, false)), seconds(55));
  EXPECT_EQ(scenario::fork_time(interruption(ControllerKind::Pox, true)), seconds(55));
  RunSpec custom;
  custom.experiment = ExperimentKind::Custom;
  EXPECT_THROW(scenario::fork_time(custom), std::invalid_argument);
}

TEST(RunSpec, CampaignGridSharesOneSignaturePerController) {
  const auto grid = scenario::fig11_campaign_grid({seconds(35), seconds(45)}, 2, 0);
  ASSERT_EQ(grid.size(), 9u);  // 3 controllers x (baseline + 2 attack starts)
  EXPECT_EQ(grid[0].id(), "suppression/Floodlight/baseline");
  EXPECT_EQ(grid[1].id(), "suppression/Floodlight/attack/t35");
  EXPECT_EQ(grid[2].id(), "suppression/Floodlight/attack/t45");
  const auto sig = scenario::warmup_signature(grid[0]);
  EXPECT_EQ(scenario::warmup_signature(grid[1]), sig);
  EXPECT_EQ(scenario::warmup_signature(grid[2]), sig);
  EXPECT_NE(scenario::warmup_signature(grid[3]), sig);  // next controller
}

// ---------------------------------------------------------------------------
// Binary result round-trip (the tail's pipe payload).
// ---------------------------------------------------------------------------

Bytes save(const scenario::RunResult& result) {
  ByteWriter w;
  scenario::save_result(result, w);
  return w.bytes();
}

// save(load(save(r))) == save(r), and the JSON matches too. The byte check
// covers fields the JSON hides (ping trial seq/sent_at, and the rule-engine
// counters while extended_control_channel_json is off).
void expect_round_trips(const scenario::RunResult& original) {
  const Bytes bytes = save(original);
  ByteReader r(bytes);
  const scenario::RunResultPtr loaded = scenario::load_result(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(save(*loaded), bytes);
  EXPECT_EQ(loaded->to_json(), original.to_json());
}

TEST(ResultSerialization, SuppressionRoundTripsByteExactly) {
  const scenario::RunResultPtr original = scenario::run(quick_suppression(ControllerKind::Pox, true));
  EXPECT_GT(original->rules_skipped_by_guard, 0u);
  expect_round_trips(*original);
}

TEST(ResultSerialization, InterruptionRoundTripsByteExactly) {
  RunSpec spec = interruption(ControllerKind::Ryu, true);
  spec.options.extended_control_channel_json = true;
  const scenario::RunResultPtr original = scenario::run(spec);
  EXPECT_NE(original->to_json().find("\"programs_executed\""), std::string::npos);
  expect_round_trips(*original);
}

TEST(ResultSerialization, UnansweredPingTrialsSurvive) {
  scenario::SuppressionResult result;
  result.controller = ControllerKind::Floodlight;
  result.attack_enabled = true;
  result.ping.trials.push_back({1, seconds(30), std::nullopt});
  result.ping.trials.push_back({2, seconds(31), 1234});
  result.iperf_mbps = {0.0, 93.25};
  ByteWriter w;
  scenario::save_result(result, w);
  ByteReader r(w.bytes());
  const scenario::RunResultPtr loaded = scenario::load_result(r);
  EXPECT_EQ(loaded->to_json(), result.to_json());
}

// Hand-built save_result records (layout in experiment.cpp): tag, the
// common block (controller, attack, options, seven u64 counters), then the
// kind's fields. Only the bytes under test vary.
void write_common(ByteWriter& w, std::uint8_t controller) {
  w.u8(controller);
  w.u8(1);  // attack
  w.u8(2);  // options: use_compiled
  for (int i = 0; i < 7; ++i) w.u64(0);
}

Bytes suppression_record(std::uint8_t controller, std::uint32_t ping_trials) {
  ByteWriter w;
  w.u8(1);  // suppression tag
  write_common(w, controller);
  w.u32(ping_trials);  // no trial bodies follow
  w.u32(0);            // iperf samples
  for (int i = 0; i < 5; ++i) w.u64(0);
  return w.bytes();
}

Bytes volumetric_record(std::uint8_t kind, std::uint32_t topology_id_len) {
  ByteWriter w;
  w.u8(3);  // volumetric tag
  write_common(w, static_cast<std::uint8_t>(ControllerKind::Pox));
  w.u8(kind);
  w.u32(topology_id_len);
  w.raw({reinterpret_cast<const std::uint8_t*>("fat-tree/k4"), 11});
  for (int i = 0; i < 9; ++i) w.u64(0);
  w.u32(0);  // probe trials
  return w.bytes();
}

scenario::RunResultPtr load(const Bytes& record) {
  ByteReader r(record);
  return scenario::load_result(r);
}

TEST(ResultSerialization, HandBuiltRecordsLoad) {
  const scenario::RunResultPtr s =
      load(suppression_record(static_cast<std::uint8_t>(ControllerKind::Ryu), 0));
  EXPECT_EQ(s->controller, ControllerKind::Ryu);
  const scenario::RunResultPtr v = load(volumetric_record(2, 11));
  EXPECT_EQ(dynamic_cast<const scenario::VolumetricResult&>(*v).topology_id, "fat-tree/k4");
  EXPECT_NO_THROW(v->to_json());
}

TEST(ResultSerialization, UnregisteredControllerIsADecodeError) {
  // Loading used to succeed and to_json() threw later, after a resumed
  // journal had already accepted the record.
  EXPECT_THROW(load(suppression_record(9, 0)), DecodeError);
  EXPECT_THROW(load(suppression_record(0xff, 0)), DecodeError);
}

TEST(ResultSerialization, OutOfRangeVolumetricKindIsADecodeError) {
  EXPECT_THROW(load(volumetric_record(3, 11)), DecodeError);
  EXPECT_THROW(load(volumetric_record(0xff, 11)), DecodeError);
}

TEST(ResultSerialization, CountsBeyondTheRecordAreDecodeErrors) {
  // 0x0fffffff ping trials used to reserve ~4 GiB and throw bad_alloc.
  EXPECT_THROW(load(suppression_record(1, 0x0fffffffu)), DecodeError);
  EXPECT_THROW(load(suppression_record(1, 0xffffffffu)), DecodeError);
  EXPECT_THROW(load(volumetric_record(0, 0x7fffffffu)), DecodeError);
}

TEST(ResultSerialization, CustomResultsAreRejected) {
  class Opaque : public scenario::RunResult {
   public:
    std::string kind_name() const override { return "opaque"; }
    scenario::TableRow row() const override { return {}; }
    scenario::RunResultPtr clone() const override { return std::make_unique<Opaque>(*this); }
    void fields(scenario::FieldCodec&) override {}
  };
  ByteWriter w;
  EXPECT_THROW(scenario::save_result(Opaque{}, w), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The hard guarantee: forked == cold, byte for byte.
// ---------------------------------------------------------------------------

sweep::SweepReport run_grid(const std::vector<RunSpec>& grid, bool warm) {
  sweep::SweepOptions options;
  options.threads = 2;
  options.warm_start = warm;
  return sweep::SweepRunner(options).run(grid);
}

TEST(WarmStart, PaperGridsAreByteIdenticalToColdRuns) {
  if (!snap::fork_supported()) GTEST_SKIP() << "process forking unavailable here";

  // The full Table II and Fig. 11 evaluation grids (quick Fig. 11 shape).
  std::vector<RunSpec> grid = scenario::table2_grid();
  for (RunSpec& spec : scenario::fig11_grid()) grid.push_back(std::move(spec));

  const sweep::SweepReport cold = run_grid(grid, /*warm=*/false);
  const sweep::SweepReport warm = run_grid(grid, /*warm=*/true);

  ASSERT_EQ(cold.ok(), grid.size());
  ASSERT_EQ(warm.ok(), grid.size());
  EXPECT_EQ(cold.results_json(), warm.results_json());

  // The warm run really exercised the fork path: every cell pairs up
  // (3 interruption fail-mode pairs + 3 suppression baseline/attack
  // pairs), so all 12 cells come from 6 shared warm-ups.
  EXPECT_EQ(cold.warm_cells, 0u);
  EXPECT_EQ(warm.warm_cells, grid.size());
  EXPECT_EQ(warm.warm_groups, 6u);
}

TEST(WarmStart, CampaignGridIsByteIdenticalToColdRuns) {
  if (!snap::fork_supported()) GTEST_SKIP() << "process forking unavailable here";

  // Arm times straddle the ping burst (trials fire at t = 30..31 s): the
  // 29 s attack suppresses the pings' flow mods, the 35 s one arms after
  // all traffic and changes nothing.
  const auto grid = scenario::fig11_campaign_grid({seconds(29), seconds(35)}, 2, 0);
  const sweep::SweepReport cold = run_grid(grid, /*warm=*/false);
  const sweep::SweepReport warm = run_grid(grid, /*warm=*/true);

  ASSERT_EQ(cold.ok(), grid.size());
  ASSERT_EQ(warm.ok(), grid.size());
  EXPECT_EQ(cold.results_json(), warm.results_json());
  EXPECT_EQ(warm.warm_cells, grid.size());
  EXPECT_EQ(warm.warm_groups, 3u);  // one shared warm-up per controller

  // Attack timing matters: later arming leaves more of the workload intact.
  const auto* early = warm.find("suppression/POX/attack/t29");
  const auto* late = warm.find("suppression/POX/attack/t35");
  ASSERT_NE(early, nullptr);
  ASSERT_NE(late, nullptr);
  EXPECT_NE(early->result->to_json(), late->result->to_json());
}

TEST(WarmStart, ProgressFiresOncePerCellInWarmGroups) {
  if (!snap::fork_supported()) GTEST_SKIP() << "process forking unavailable here";

  const std::vector<RunSpec> grid = {
      quick_suppression(ControllerKind::Pox, false),
      quick_suppression(ControllerKind::Pox, true),
      quick_suppression(ControllerKind::Ryu, false),
      quick_suppression(ControllerKind::Ryu, true),
  };
  std::vector<std::size_t> completed_values;
  sweep::SweepOptions options;
  options.threads = 2;
  options.warm_start = true;
  options.on_progress = [&](const sweep::Progress& p) { completed_values.push_back(p.completed); };
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  EXPECT_EQ(report.ok(), grid.size());
  EXPECT_EQ(report.warm_cells, grid.size());
  std::sort(completed_values.begin(), completed_values.end());
  EXPECT_EQ(completed_values, (std::vector<std::size_t>{1, 2, 3, 4}));
}

TEST(WarmStart, LonersAndCustomCellsFallBackCold) {
  // One suppression cell (nothing to pair with), one custom cell (no
  // signature): warm-start must leave both on the cold path yet still
  // produce results.
  std::vector<RunSpec> grid = {quick_suppression(ControllerKind::Pox, false)};
  RunSpec custom;
  custom.experiment = ExperimentKind::Custom;
  custom.name = "token-cell";
  custom.custom = [](const RunSpec&) -> scenario::RunResultPtr {
    class Token : public scenario::RunResult {
     public:
      std::string kind_name() const override { return "token"; }
      scenario::TableRow row() const override { return {{"t", "1"}}; }
      scenario::RunResultPtr clone() const override { return std::make_unique<Token>(*this); }
      void fields(scenario::FieldCodec& codec) override { codec.field("t", t_); }

     private:
      std::uint64_t t_{1};
    };
    return std::make_unique<Token>();
  };
  grid.push_back(std::move(custom));

  sweep::SweepOptions options;
  options.threads = 1;
  options.warm_start = true;
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  EXPECT_EQ(report.ok(), 2u);
  EXPECT_EQ(report.warm_cells, 0u);
  EXPECT_EQ(report.warm_groups, 0u);

  // And the degenerate grids hold up.
  EXPECT_EQ(sweep::SweepRunner(options).run({}).cells.size(), 0u);
  const sweep::SweepReport single =
      sweep::SweepRunner(options).run({quick_suppression(ControllerKind::Ryu, true)});
  EXPECT_EQ(single.ok(), 1u);
  EXPECT_EQ(single.warm_cells, 0u);
}

#if defined(__unix__) || defined(__APPLE__)

/// Bytes a fresh pipe buffers before its writer blocks.
std::size_t pipe_capacity() {
#if defined(F_GETPIPE_SZ)
  int fds[2];
  if (::pipe(fds) != 0) return 0;
  const int size = ::fcntl(fds[1], F_GETPIPE_SZ);
  ::close(fds[0]);
  ::close(fds[1]);
  return size > 0 ? static_cast<std::size_t>(size) : 0;
#else
  return 65536;  // the common default
#endif
}

// A tail whose result outgrows the pipe buffer blocks in its write until
// the group parent drains its pipe. The group child forks tails in
// fork-time order and, with one live tail allowed, waits for the t5 tail
// before forking the baseline's — so draining in grid order (baseline
// first) deadlocked. The pipes must drain in fork order.
TEST(WarmGroupPipes, TailLargerThanPipeBufferDrainsInForkOrder) {
  if (!snap::fork_supported()) GTEST_SKIP() << "process forking unavailable here";
  const test_support::Watchdog watchdog(300);

  std::vector<RunSpec> grid;
  for (RunSpec& spec : scenario::fig11_campaign_grid({seconds(5)}, /*ping_trials=*/8000, 0)) {
    if (spec.controller == ControllerKind::Pox) grid.push_back(std::move(spec));
  }
  ASSERT_EQ(grid.size(), 2u);  // {baseline, t5}: grid order is not fork order
  ASSERT_LT(scenario::fork_time(grid[1]), scenario::fork_time(grid[0]));

  sweep::SweepOptions options;
  options.threads = 1;
  options.warm_start = true;
  options.warm_tail_processes = 1;
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  ASSERT_EQ(report.ok(), grid.size());
  EXPECT_EQ(report.warm_cells, grid.size());
  // The test exercises what it names only while a result outgrows the pipe.
  for (const sweep::CellOutcome& cell : report.cells) {
    ByteWriter w;
    scenario::save_result(*cell.result, w);
    EXPECT_GT(w.size(), pipe_capacity()) << cell.spec.id();
  }
}

#endif  // __unix__ || __APPLE__

}  // namespace
}  // namespace attain
