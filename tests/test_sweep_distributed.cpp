// Distributed campaign runner: wire framing, the resumable campaign
// journal (round-trip, torn-tail truncation, campaign binding), N-worker
// byte-identity to the in-process SweepRunner over the paper grids,
// worker-death fault injection (SIGKILL mid-cell, corrupted and truncated
// result frames -> respawn + cold re-run + identical merged JSON),
// journal resume after coordinator death, and the per-worker memory
// steady-state accounting.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_hook.hpp"
#include "scenario/experiment.hpp"
#include "snap/wire.hpp"
#include "sweep/distributed.hpp"
#include "sweep/journal.hpp"
#include "sweep/sweep.hpp"
#include "topo/generators.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "snap/snapshot.hpp"

namespace attain {
namespace {

using scenario::ControllerKind;
using scenario::ExperimentKind;
using scenario::RunSpec;

// A short suppression cell (~39 virtual seconds, no iperf).
RunSpec quick_suppression(ControllerKind kind, bool attack) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.controller = kind;
  spec.attack_enabled = attack;
  spec.ping_trials = 2;
  spec.iperf_trials = 0;
  return spec;
}

std::vector<RunSpec> quick_grid() {
  return {
      quick_suppression(ControllerKind::Pox, false),
      quick_suppression(ControllerKind::Pox, true),
      quick_suppression(ControllerKind::Ryu, false),
      quick_suppression(ControllerKind::Ryu, true),
  };
}

// Small volumetric grid: one fat-tree, POX, flood + overflow + baselines.
std::vector<RunSpec> quick_volumetric_grid() {
  return scenario::GridBuilder()
      .volumetric(scenario::VolumetricKind::PacketInFlood)
      .volumetric(scenario::VolumetricKind::TableOverflow)
      .controllers({ControllerKind::Pox})
      .topology(topo::TopologySpec::fat_tree(4))
      .flood(/*flows=*/32, /*duration=*/2 * kSecond, /*batch=*/250 * kMillisecond)
      .table_capacity(64)
      .build();
}

RunSpec custom_spec(std::string name, std::function<scenario::RunResultPtr(const RunSpec&)> fn) {
  RunSpec spec;
  spec.experiment = ExperimentKind::Custom;
  spec.name = std::move(name);
  spec.custom = std::move(fn);
  return spec;
}

std::string temp_path(const std::string& stem) {
  const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "-" + info->test_suite_name() + "-" + info->name();
}

sweep::SweepReport reference_run(const std::vector<RunSpec>& grid) {
  sweep::SweepOptions options;
  options.threads = 1;
  return sweep::SweepRunner(options).run(grid);
}

sweep::DistributedReport distributed_run(const std::vector<RunSpec>& grid, unsigned workers,
                                         bool warm = false) {
  sweep::DistributedOptions options;
  options.workers = workers;
  options.warm_start = warm;
  return sweep::DistributedRunner(options).run(grid);
}

// ---------------------------------------------------------------------------
// Wire framing.
// ---------------------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

TEST(Wire, FrameRoundTripAndCleanEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::vector<std::uint8_t> a{1, 2, 3, 4, 5};
  const std::vector<std::uint8_t> b{};  // empty payloads are legal frames
  ASSERT_TRUE(snap::wire::write_frame(fds[1], a));
  ASSERT_TRUE(snap::wire::write_frame(fds[1], b));
  ::close(fds[1]);

  Bytes out;
  ASSERT_EQ(snap::wire::read_frame(fds[0], out), snap::wire::FrameStatus::Ok);
  EXPECT_EQ(std::vector<std::uint8_t>(out.begin(), out.end()), a);
  ASSERT_EQ(snap::wire::read_frame(fds[0], out), snap::wire::FrameStatus::Ok);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(snap::wire::read_frame(fds[0], out), snap::wire::FrameStatus::Eof);
  ::close(fds[0]);
}

TEST(Wire, TruncatedFrameIsErrorNotEof) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Header promises 8 payload bytes; deliver 3 and hang up.
  const std::uint8_t partial[] = {0, 0, 0, 8, 0xAA, 0xBB, 0xCC};
  ASSERT_TRUE(snap::wire::write_exact(fds[1], partial));
  ::close(fds[1]);
  Bytes out;
  EXPECT_EQ(snap::wire::read_frame(fds[0], out), snap::wire::FrameStatus::Error);
  ::close(fds[0]);
}

TEST(Wire, OversizePayloadLengthIsError) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint8_t huge[] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_TRUE(snap::wire::write_exact(fds[1], huge));
  ::close(fds[1]);
  Bytes out;
  EXPECT_EQ(snap::wire::read_frame(fds[0], out), snap::wire::FrameStatus::Error);
  ::close(fds[0]);
}

#endif  // __unix__ || __APPLE__

TEST(Wire, SealDetectsTampering) {
  ByteWriter w;
  w.u32(0xDEADBEEF);
  w.u8(7);
  Bytes sealed = snap::wire::seal(std::move(w));
  std::span<const std::uint8_t> body;
  ASSERT_TRUE(snap::wire::unseal(sealed, body));
  ASSERT_EQ(body.size(), 5u);
  ByteReader r(body);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);

  Bytes tampered = sealed;
  tampered[2] ^= 0x01;
  EXPECT_FALSE(snap::wire::unseal(tampered, body));

  Bytes short_payload;
  short_payload.resize(7);
  EXPECT_FALSE(snap::wire::unseal(short_payload, body));
}

// ---------------------------------------------------------------------------
// Campaign journal.
// ---------------------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

TEST(CampaignJournal, RoundTripRestoresOutcomes) {
  const std::vector<RunSpec> grid = {quick_suppression(ControllerKind::Pox, false),
                                     quick_suppression(ControllerKind::Pox, true)};
  const std::uint64_t digest = scenario::grid_digest(grid);
  const std::string path = temp_path("journal");

  sweep::SweepReport ran = reference_run(grid);
  {
    sweep::CampaignJournal journal = sweep::CampaignJournal::create(path, digest, grid.size());
    EXPECT_TRUE(journal.append(0, ran.cells[0]));
    EXPECT_TRUE(journal.append(1, ran.cells[1]));
  }

  std::vector<sweep::CampaignJournal::LoadedCell> loaded;
  sweep::CampaignJournal resumed =
      sweep::CampaignJournal::resume(path, digest, grid.size(), loaded);
  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t k = 0; k < loaded.size(); ++k) {
    EXPECT_EQ(loaded[k].index, k);
    EXPECT_EQ(loaded[k].outcome.status, ran.cells[k].status);
    EXPECT_EQ(loaded[k].outcome.attempts, ran.cells[k].attempts);
    ASSERT_NE(loaded[k].outcome.result, nullptr);
    EXPECT_EQ(loaded[k].outcome.result->to_json(), ran.cells[k].result->to_json());
  }
  std::remove(path.c_str());
}

TEST(CampaignJournal, TornTailIsTruncatedNotTrusted) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::uint64_t digest = scenario::grid_digest(grid);
  const std::string path = temp_path("journal");

  sweep::SweepReport ran = reference_run(grid);
  {
    sweep::CampaignJournal journal = sweep::CampaignJournal::create(path, digest, grid.size());
    EXPECT_TRUE(journal.append(0, ran.cells[0]));
    EXPECT_TRUE(journal.append(1, ran.cells[1]));
  }
  // Simulate a coordinator killed mid-append: half a frame of garbage.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const std::uint8_t torn[] = {0, 0, 0, 40, 1, 2, 3};
    std::fwrite(torn, 1, sizeof(torn), f);
    std::fclose(f);
  }

  std::vector<sweep::CampaignJournal::LoadedCell> loaded;
  sweep::CampaignJournal resumed =
      sweep::CampaignJournal::resume(path, digest, grid.size(), loaded);
  ASSERT_EQ(loaded.size(), 2u);  // the torn record is dropped
  // The file was truncated back to the intact prefix: appending and
  // re-resuming yields exactly three records.
  EXPECT_TRUE(resumed.append(2, ran.cells[2]));
  resumed.close();
  loaded.clear();
  sweep::CampaignJournal again = sweep::CampaignJournal::resume(path, digest, grid.size(), loaded);
  EXPECT_EQ(loaded.size(), 3u);
  std::remove(path.c_str());
}

#if defined(__unix__) || defined(__APPLE__)
// An intact, correctly checksummed journal record whose body does not
// decode. Variant 0: a status byte that is no CellStatus. Variants 1 and 2
// carry a suppression result (layout in experiment.cpp's save_result) with
// an unregistered controller byte / a ping-trial count far beyond the
// record, and the result digest such a record would have if it loaded.
ByteWriter undecodable_record(int variant) {
  ByteWriter w;
  w.u32(1);                    // cell index
  w.u8(variant == 0 ? 7 : 0);  // status
  w.u32(1);                    // attempts
  w.u64(0);                    // wall seconds
  w.u32(0);                    // error text length
  if (variant == 0) {
    w.u8(0);   // no result
    w.u64(0);  // result digest
    return w;
  }
  ByteWriter result;
  result.u8(1);                          // suppression tag
  result.u8(variant == 1 ? 9 : 1);       // controller
  result.u8(1);                          // attack
  result.u8(2);                          // options
  for (int i = 0; i < 7; ++i) result.u64(0);
  result.u32(variant == 2 ? 0x0fffffffu : 0);  // ping trials
  result.u32(0);                                // iperf samples
  for (int i = 0; i < 5; ++i) result.u64(0);
  w.u8(1);
  w.raw(result.bytes());
  w.u64(fnv1a64(result.bytes()));
  return w;
}

TEST(CampaignJournal, UndecodableRecordIsDroppedAndTruncated) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::uint64_t digest = scenario::grid_digest(grid);
  sweep::CellOutcome ok;
  ok.status = sweep::CellStatus::Ok;
  ok.attempts = 1;
  ok.result = std::make_unique<scenario::SuppressionResult>();

  for (int variant = 0; variant < 3; ++variant) {
    const std::string path = temp_path("journal");
    {
      sweep::CampaignJournal journal = sweep::CampaignJournal::create(path, digest, grid.size());
      ASSERT_TRUE(journal.append(0, ok));
    }
    {
      const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
      ASSERT_GE(fd, 0);
      EXPECT_TRUE(snap::wire::write_frame(fd, snap::wire::seal(undecodable_record(variant))));
      ::close(fd);
    }
    std::vector<sweep::CampaignJournal::LoadedCell> loaded;
    sweep::CampaignJournal resumed =
        sweep::CampaignJournal::resume(path, digest, grid.size(), loaded);
    EXPECT_EQ(loaded.size(), 1u) << "variant " << variant;
    // Truncated after the last good record: a fresh append is record two.
    EXPECT_TRUE(resumed.append(2, ok));
    resumed.close();
    loaded.clear();
    sweep::CampaignJournal again = sweep::CampaignJournal::resume(path, digest, grid.size(), loaded);
    ASSERT_EQ(loaded.size(), 2u) << "variant " << variant;
    EXPECT_EQ(loaded[1].index, 2u);
    std::remove(path.c_str());
  }
}
#endif

TEST(CampaignJournal, RejectsMismatchedCampaign) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::string path = temp_path("journal");
  { sweep::CampaignJournal::create(path, scenario::grid_digest(grid), grid.size()); }

  std::vector<sweep::CampaignJournal::LoadedCell> loaded;
  EXPECT_THROW(sweep::CampaignJournal::resume(path, scenario::grid_digest(grid) ^ 1, grid.size(),
                                              loaded),
               std::runtime_error);
  EXPECT_THROW(sweep::CampaignJournal::resume(path, scenario::grid_digest(grid), grid.size() + 1,
                                              loaded),
               std::runtime_error);
  std::remove(path.c_str());
}

#endif  // __unix__ || __APPLE__

// ---------------------------------------------------------------------------
// Work planning.
// ---------------------------------------------------------------------------

TEST(WorkPlan, SkipFilterExcludesCompletedCells) {
  const std::vector<RunSpec> grid = quick_grid();
  std::vector<bool> skip(grid.size(), false);
  skip[0] = true;
  skip[2] = true;
  const std::vector<sweep::WorkItem> items = sweep::plan_work_items(grid, false, &skip);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].cells, (std::vector<std::size_t>{1}));
  EXPECT_EQ(items[1].cells, (std::vector<std::size_t>{3}));
}

TEST(WorkPlan, WarmGroupsNeverSplit) {
  if (!snap::fork_supported()) GTEST_SKIP() << "fork snapshots unsupported here";
  const std::vector<RunSpec> grid = quick_grid();  // two signature pairs
  const std::vector<sweep::WorkItem> items = sweep::plan_work_items(grid, true);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_TRUE(items[0].warm);
  EXPECT_TRUE(items[1].warm);
  EXPECT_EQ(items[0].cells, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(items[1].cells, (std::vector<std::size_t>{2, 3}));
}

// ---------------------------------------------------------------------------
// Byte-identity to the in-process SweepRunner.
// ---------------------------------------------------------------------------

TEST(Distributed, QuickGridByteIdenticalAcrossWorkerCounts) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::string reference = reference_run(grid).results_json();
  const sweep::DistributedReport one = distributed_run(grid, 1);
  const sweep::DistributedReport four = distributed_run(grid, 4);
  EXPECT_EQ(one.results_json(), reference);
  EXPECT_EQ(four.results_json(), reference);
  EXPECT_EQ(four.workers, 4u);
  EXPECT_EQ(four.respawns, 0u);
}

TEST(Distributed, WarmStartStaysByteIdentical) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::string reference = reference_run(grid).results_json();
  const sweep::DistributedReport warm = distributed_run(grid, 2, /*warm=*/true);
  EXPECT_EQ(warm.results_json(), reference);
  if (sweep::distributed_supported()) {
    EXPECT_GT(warm.sweep.warm_cells, 0u) << "signature pairs should fork warm";
  }
}

TEST(Distributed, Table2GridByteIdentical) {
  const std::vector<RunSpec> grid = scenario::table2_grid();
  const std::string reference = reference_run(grid).results_json();
  EXPECT_EQ(distributed_run(grid, 4).results_json(), reference);
}

TEST(Distributed, Fig11QuickGridByteIdentical) {
  const std::vector<RunSpec> grid = scenario::fig11_grid(/*ping_trials=*/2, /*iperf_trials=*/0);
  const std::string reference = reference_run(grid).results_json();
  EXPECT_EQ(distributed_run(grid, 3).results_json(), reference);
}

TEST(Distributed, VolumetricGridByteIdenticalColdAndWarm) {
  const std::vector<RunSpec> grid = quick_volumetric_grid();
  const std::string reference = reference_run(grid).results_json();
  EXPECT_EQ(distributed_run(grid, 4).results_json(), reference);
  EXPECT_EQ(distributed_run(grid, 2, /*warm=*/true).results_json(), reference);
}

TEST(Distributed, ProgressMarchesOncePerCell) {
  const std::vector<RunSpec> grid = quick_grid();
  sweep::DistributedOptions options;
  options.workers = 2;
  std::vector<std::size_t> ticks;
  options.on_progress = [&](const sweep::Progress& p) {
    ticks.push_back(p.completed);
    EXPECT_EQ(p.total, grid.size());
    EXPECT_NE(p.cell, nullptr);
  };
  sweep::DistributedRunner(options).run(grid);
  ASSERT_EQ(ticks.size(), grid.size());
  for (std::size_t k = 0; k < ticks.size(); ++k) EXPECT_EQ(ticks[k], k + 1);
}

TEST(Distributed, ReportSurfacesAccounting) {
  const std::vector<RunSpec> grid = quick_grid();
  const sweep::DistributedReport report = distributed_run(grid, 2);
  EXPECT_EQ(report.workers, 2u);
  EXPECT_GE(report.shards, grid.size()) << "cold cells dispatch as singleton shards";
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(json.find("\"shards\":"), std::string::npos);
  EXPECT_NE(json.find("\"respawns\":"), std::string::npos);
  EXPECT_NE(json.find("\"resumed_cells\":"), std::string::npos);
  EXPECT_NE(report.summary().find("worker process"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fault injection: dying workers, corrupt streams.
// ---------------------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

// A custom cell that SIGKILLs its own process the first time any process
// executes it (the sentinel file makes the kill one-shot across respawns),
// then behaves as a plain suppression cell. Its result is a standard
// serializable type, so it crosses the worker pipe and the journal.
RunSpec killer_cell(const std::string& sentinel) {
  return custom_spec("killer-cell", [sentinel](const RunSpec&) -> scenario::RunResultPtr {
    const int fd = ::open(sentinel.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      ::close(fd);
      ::kill(::getpid(), SIGKILL);
    }
    return scenario::run(quick_suppression(ControllerKind::Pox, false));
  });
}

// The same cell without the kill: the deterministic reference.
RunSpec killer_cell_reference() {
  return custom_spec("killer-cell", [](const RunSpec&) -> scenario::RunResultPtr {
    return scenario::run(quick_suppression(ControllerKind::Pox, false));
  });
}

TEST(DistributedFaults, SigkilledWorkerIsRespawnedAndCellRerunCold) {
  if (!sweep::distributed_supported()) GTEST_SKIP() << "fork unsupported here";
  const std::string sentinel = temp_path("kill-sentinel");
  std::remove(sentinel.c_str());

  std::vector<RunSpec> grid = quick_grid();
  grid.insert(grid.begin() + 1, killer_cell(sentinel));
  std::vector<RunSpec> reference_grid = quick_grid();
  reference_grid.insert(reference_grid.begin() + 1, killer_cell_reference());
  const std::string reference = reference_run(reference_grid).results_json();

  const sweep::DistributedReport report = distributed_run(grid, 2);
  EXPECT_GE(report.respawns, 1u) << "the killed worker must be respawned";
  EXPECT_EQ(report.results_json(), reference)
      << "the lost cell must re-run cold with an identical outcome";
  EXPECT_EQ(report.sweep.failed(), 0u);
  std::remove(sentinel.c_str());
}

TEST(DistributedFaults, CorruptResultFrameTriggersRespawnAndRerun) {
  if (!sweep::distributed_supported()) GTEST_SKIP() << "fork unsupported here";
  const std::string sentinel = temp_path("corrupt-sentinel");
  std::remove(sentinel.c_str());
  ASSERT_EQ(::setenv("ATTAIN_TEST_CORRUPT_RESULT_FRAME", sentinel.c_str(), 1), 0);

  const std::vector<RunSpec> grid = quick_grid();
  const std::string reference = reference_run(grid).results_json();
  const sweep::DistributedReport report = distributed_run(grid, 2);

  ::unsetenv("ATTAIN_TEST_CORRUPT_RESULT_FRAME");
  EXPECT_GE(report.respawns, 1u) << "a corrupt frame must be treated as worker death";
  EXPECT_EQ(report.results_json(), reference);
  EXPECT_EQ(report.sweep.failed(), 0u);
  std::remove(sentinel.c_str());
}

TEST(DistributedFaults, TruncatedResultFrameTriggersRespawnAndRerun) {
  if (!sweep::distributed_supported()) GTEST_SKIP() << "fork unsupported here";
  const std::string sentinel = temp_path("truncate-sentinel");
  std::remove(sentinel.c_str());
  ASSERT_EQ(::setenv("ATTAIN_TEST_TRUNCATE_RESULT_FRAME", sentinel.c_str(), 1), 0);

  const std::vector<RunSpec> grid = quick_grid();
  const std::string reference = reference_run(grid).results_json();
  const sweep::DistributedReport report = distributed_run(grid, 2);

  ::unsetenv("ATTAIN_TEST_TRUNCATE_RESULT_FRAME");
  EXPECT_GE(report.respawns, 1u) << "a truncated frame must be treated as worker death";
  EXPECT_EQ(report.results_json(), reference);
  EXPECT_EQ(report.sweep.failed(), 0u);
  std::remove(sentinel.c_str());
}

#endif  // __unix__ || __APPLE__

// ---------------------------------------------------------------------------
// Resume.
// ---------------------------------------------------------------------------

#if defined(__unix__) || defined(__APPLE__)

TEST(DistributedResume, KilledCampaignResumesWithoutRerunningCompletedCells) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::string path = temp_path("campaign-journal");

  sweep::DistributedOptions options;
  options.workers = 1;
  options.journal_path = path;
  const sweep::DistributedReport full = sweep::DistributedRunner(options).run(grid);
  ASSERT_EQ(full.journal_records, grid.size());
  const std::string reference = full.results_json();

  // Simulate a coordinator killed mid-campaign: chop the journal to ~60%
  // of its bytes, leaving some intact records and one torn one.
  struct stat st{};
  ASSERT_EQ(::stat(path.c_str(), &st), 0);
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(st.st_size * 3 / 5)), 0);

  options.resume = true;
  const sweep::DistributedReport resumed = sweep::DistributedRunner(options).run(grid);
  EXPECT_GE(resumed.resumed_cells, 1u) << "intact journal records must be restored";
  EXPECT_LT(resumed.resumed_cells, grid.size()) << "the torn tail must re-run";
  EXPECT_EQ(resumed.journal_records, grid.size() - resumed.resumed_cells);
  EXPECT_EQ(resumed.respawns, 0u);
  EXPECT_EQ(resumed.results_json(), reference)
      << "a resumed campaign must merge byte-identically to an uninterrupted one";

  // Resuming the now-complete journal runs nothing at all.
  const sweep::DistributedReport complete = sweep::DistributedRunner(options).run(grid);
  EXPECT_EQ(complete.resumed_cells, grid.size());
  EXPECT_EQ(complete.journal_records, 0u);
  EXPECT_EQ(complete.results_json(), reference);
  std::remove(path.c_str());
}

TEST(DistributedResume, MismatchedGridThrows) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::string path = temp_path("campaign-journal");
  sweep::DistributedOptions options;
  options.workers = 1;
  options.journal_path = path;
  sweep::DistributedRunner(options).run(grid);

  options.resume = true;
  std::vector<RunSpec> other = grid;
  other.pop_back();
  EXPECT_THROW(sweep::DistributedRunner(options).run(other), std::runtime_error);
  std::remove(path.c_str());
}

#endif  // __unix__ || __APPLE__

// ---------------------------------------------------------------------------
// Per-worker memory steady state.
// ---------------------------------------------------------------------------

TEST(DistributedMemory, WorkerLoopReachesAllocationSteadyState) {
  if (!sweep::distributed_supported()) GTEST_SKIP() << "fork unsupported here";
  if (!memhook::installed()) GTEST_SKIP() << "alloc hook not linked";
  // Four identical cells through one worker: after the first cell pays the
  // slab commits, the worker loop must hold a flat allocation count and a
  // flat slab reserve (mem::run_boundary() fires per item, so each cell
  // re-uses the previous cell's pages).
  const std::vector<RunSpec> grid(4, quick_suppression(ControllerKind::Pox, false));
  const sweep::DistributedReport report = distributed_run(grid, 1);
  ASSERT_EQ(report.sweep.failed(), 0u);
  const auto& cells = report.sweep.cells;
  ASSERT_EQ(cells.size(), 4u);
  for (const sweep::CellOutcome& cell : cells) {
    EXPECT_GT(cell.worker_allocations, 0u) << "workers inherit the counting allocator";
    EXPECT_GT(cell.worker_slab_reserved, 0u);
  }
  EXPECT_EQ(cells[2].worker_allocations, cells[3].worker_allocations)
      << "a repeated cell must not allocate more than the previous run";
  EXPECT_EQ(cells[2].worker_slab_reserved, cells[3].worker_slab_reserved)
      << "a repeated cell must not commit new slab blocks";
  EXPECT_LE(cells[3].worker_slab_reserved, cells[1].worker_slab_reserved * 2)
      << "the slab reserve must not grow per cell";
}

}  // namespace
}  // namespace attain
