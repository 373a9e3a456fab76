// Golden corpus: every document under tests/golden/ is regenerated here and
// byte-compared with the committed files — the results JSON, the per-cell
// result_digest listing and the results text table (see golden_corpus.hpp). The campaign and
// volumetric grids are also run through the warm-start SweepRunner and a
// 2-worker DistributedRunner against the same files. This test never
// writes a golden; golden_regen does, and each use is logged in
// CHANGES.md.
//
// Run time matters because the Debug sanitizer builds run the Fig. 11
// grids 70-180x slower than RelWithDebInfo (TSan: 840 s for the cold
// campaign on one thread). So the cold checks run on four threads —
// thread count is not an input; the documents were written at one thread
// and FatTreeFloodAndSlowRate checks both — and the 2-worker distributed
// runs warm-start inside the workers, the configuration of the campaign
// benchmark workload (cold distributed runs are covered by
// test_sweep_distributed.cpp). A warm group forks, and forking while other
// sweep threads run can leave the child waiting on a lock another thread
// held (a 4-thread warm campaign once hung under ASan). The runner now runs
// warm groups on the calling thread before its pool starts;
// Table2WarmStartOnFourThreads pins that under a wall-clock watchdog.
#include <algorithm>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "golden_corpus.hpp"
#include "scenario/experiment.hpp"
#include "snap/snapshot.hpp"
#include "sweep/distributed.hpp"
#include "sweep/sweep.hpp"
#include "watchdog.hpp"

namespace attain {
namespace {

// Byte comparison that reports the first differing offset with a little
// context instead of dumping two multi-kilobyte documents.
::testing::AssertionResult same_bytes(const std::string& expected, const std::string& actual) {
  if (expected == actual) return ::testing::AssertionSuccess();
  const auto [e, a] = std::mismatch(expected.begin(), expected.end(), actual.begin(), actual.end());
  const std::size_t at = static_cast<std::size_t>(e - expected.begin());
  const std::size_t from = at < 60 ? 0 : at - 60;
  return ::testing::AssertionFailure()
         << "first difference at byte " << at << " (sizes " << expected.size() << " vs "
         << actual.size() << ")\n  golden: ..." << expected.substr(from, 120)
         << "\n  actual: ..." << actual.substr(from, 120);
}

void expect_matches_golden(const std::string& name, const sweep::SweepReport& report) {
  const std::string dir = golden::default_dir();
  EXPECT_EQ(report.failed(), 0u) << name;
  EXPECT_TRUE(same_bytes(golden::read_file(golden::json_path(dir, name)),
                         golden::results_text(report)))
      << name << ".json";
  EXPECT_TRUE(same_bytes(golden::read_file(golden::digests_path(dir, name)),
                         golden::digest_text(report)))
      << name << ".digests";
  EXPECT_TRUE(same_bytes(golden::read_file(golden::table_path(dir, name)),
                         golden::table_text(report)))
      << name << ".table";
}

sweep::SweepReport run_threaded(const std::string& name, unsigned threads, bool warm_start) {
  sweep::SweepOptions options;
  options.threads = threads;
  options.warm_start = warm_start;
  return sweep::SweepRunner(options).run(golden::document(name).grid());
}

void expect_cold_matches_golden(const std::string& name) {
  expect_matches_golden(name, run_threaded(name, 4, /*warm_start=*/false));
}

void expect_warm_matches_golden(const std::string& name) {
  expect_matches_golden(name, run_threaded(name, 1, /*warm_start=*/true));
}

void expect_distributed_matches_golden(const std::string& name) {
  sweep::DistributedOptions options;
  options.workers = 2;
  options.warm_start = true;
  expect_matches_golden(name,
                        sweep::DistributedRunner(options).run(golden::document(name).grid()).sweep);
}

using test_support::Watchdog;

TEST(GoldenCorpus, Table2) { expect_cold_matches_golden("table2"); }

TEST(GoldenCorpus, Table2WarmStartOnFourThreads) {
  const Watchdog watchdog(600);
  sweep::SweepOptions options;
  options.threads = 4;
  options.warm_start = true;
  // Each cell's outcome is final on the thread that ran it; a warm cell
  // finishing off the calling thread means its group forked from a pool
  // thread while others ran.
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t off_caller = 0;
  options.on_progress = [&](const sweep::Progress&) {
    if (std::this_thread::get_id() != caller) ++off_caller;
  };
  const sweep::SweepReport report =
      sweep::SweepRunner(options).run(golden::document("table2").grid());
  expect_matches_golden("table2", report);
  // Every cell shares a warm-up with its other fail mode, so all of them
  // come from forks wherever forking is available.
  if (snap::fork_supported()) {
    EXPECT_EQ(report.warm_cells, report.cells.size());
    EXPECT_EQ(off_caller, 0u);
  }
}

TEST(GoldenCorpus, Fig11) { expect_cold_matches_golden("fig11"); }

TEST(GoldenCorpus, Fig11Campaign) { expect_cold_matches_golden("fig11_campaign"); }

TEST(GoldenCorpus, Fig11CampaignWarmStart) { expect_warm_matches_golden("fig11_campaign"); }

TEST(GoldenCorpus, Fig11CampaignDistributed) {
  expect_distributed_matches_golden("fig11_campaign");
}

TEST(GoldenCorpus, FatTreeFloodAndSlowRate) {
  expect_cold_matches_golden("fat_tree_flood_slow_rate");
  expect_matches_golden("fat_tree_flood_slow_rate",
                        run_threaded("fat_tree_flood_slow_rate", 1, /*warm_start=*/false));
}

TEST(GoldenCorpus, TableOverflow) { expect_cold_matches_golden("table_overflow"); }

TEST(GoldenCorpus, ArmedSuppression) { expect_cold_matches_golden("armed_suppression"); }

TEST(GoldenCorpus, PipelineCell) { expect_cold_matches_golden("pipeline_cell"); }

TEST(GoldenCorpus, LeafSpineFlood) {
  const sweep::SweepReport report = run_threaded("leaf_spine_flood", 4, /*warm_start=*/false);
  expect_matches_golden("leaf_spine_flood", report);
  // The document is a working-forwarding case, not a storm: both cells
  // deliver every probe and the attack cell injects 4 x 64 frames.
  ASSERT_EQ(report.cells.size(), 2u);
  for (const sweep::CellOutcome& cell : report.cells) {
    const auto* v = dynamic_cast<const scenario::VolumetricResult*>(cell.result.get());
    ASSERT_NE(v, nullptr) << cell.spec.id();
    EXPECT_EQ(v->probe.loss_fraction(), 0.0) << cell.spec.id();
    EXPECT_EQ(v->flood_packets_injected, cell.spec.attack_enabled ? 256u : 0u) << cell.spec.id();
  }
}

TEST(GoldenCorpus, SweepVolumetric) { expect_cold_matches_golden("sweep_volumetric"); }

TEST(GoldenCorpus, SweepVolumetricWarmStart) { expect_warm_matches_golden("sweep_volumetric"); }

TEST(GoldenCorpus, SweepVolumetricDistributed) {
  expect_distributed_matches_golden("sweep_volumetric");
}

}  // namespace
}  // namespace attain
