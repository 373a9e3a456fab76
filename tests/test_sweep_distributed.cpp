// Distributed campaign runner: wire framing, the resumable campaign
// journal (round-trip, torn-tail truncation, campaign binding, pinned file
// bytes), the cell-outcome record fuzz, N-worker byte-identity to the
// in-process SweepRunner over the paper grids, worker-death fault
// injection (SIGKILL mid-cell, corrupted and truncated result frames ->
// respawn + cold re-run + identical merged JSON), journal resume after
// coordinator death, and the per-worker memory steady-state accounting.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_hook.hpp"
#include "common/rng.hpp"
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

  std::vector<sweep::OutcomeRecord> loaded;
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

  std::vector<sweep::OutcomeRecord> loaded;
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
    std::vector<sweep::OutcomeRecord> loaded;
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

std::string read_file_bytes(const std::string& path) {
  std::string bytes;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  return bytes;
}

// The journal's on-disk layout is a compatibility contract: a journal
// written by one build must resume under the next. Two hand-built records
// (an Ok suppression cell and a Failed cell with error text) pin the file
// bytes; the constant was taken from the first codec that wrote them.
TEST(JournalBytes, TwoRecordFileIsPinned) {
  sweep::CellOutcome ok;
  ok.status = sweep::CellStatus::Ok;
  ok.attempts = 1;
  ok.wall_seconds = 1.5;
  auto result = std::make_unique<scenario::SuppressionResult>();
  result->controller = ControllerKind::Pox;
  result->attack_enabled = true;
  result->virtual_time = seconds(39);
  result->events_executed = 12345;
  result->ping.trials.push_back({1, seconds(30), 2 * kMillisecond});
  result->ping.trials.push_back({2, seconds(31), std::nullopt});
  result->iperf_mbps = {9.5, 0.0};
  result->packet_ins = 7;
  result->flow_mods_observed = 3;
  result->flow_mods_suppressed = 2;
  ok.result = std::move(result);

  sweep::CellOutcome failed;
  failed.status = sweep::CellStatus::Failed;
  failed.attempts = 2;
  failed.wall_seconds = 0.25;
  failed.error = "cell threw: boom";

  const std::string path = temp_path("journal");
  {
    sweep::CampaignJournal journal = sweep::CampaignJournal::create(path, 0x0123456789abcdefULL, 4);
    ASSERT_TRUE(journal.append(0, ok));
    ASSERT_TRUE(journal.append(3, failed));
  }
  const std::string bytes = read_file_bytes(path);
  std::remove(path.c_str());
  EXPECT_EQ(bytes.size(), 283u);
  EXPECT_EQ(fnv1a64(bytes), 0x0284a7179c09ee92ULL);
}
#endif

TEST(CampaignJournal, RejectsMismatchedCampaign) {
  const std::vector<RunSpec> grid = quick_grid();
  const std::string path = temp_path("journal");
  { sweep::CampaignJournal::create(path, scenario::grid_digest(grid), grid.size()); }

  std::vector<sweep::OutcomeRecord> loaded;
  EXPECT_THROW(sweep::CampaignJournal::resume(path, scenario::grid_digest(grid) ^ 1, grid.size(),
                                              loaded),
               std::runtime_error);
  EXPECT_THROW(sweep::CampaignJournal::resume(path, scenario::grid_digest(grid), grid.size() + 1,
                                              loaded),
               std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The cell-outcome record (sweep::write_outcome/read_outcome) is the one
// reader behind every process boundary: warm tails, worker result frames
// and journal records. Garbled records must come back as DecodeError (or
// decode to some record), never as a crash or another exception.
// ---------------------------------------------------------------------------

// Like the other differential fuzzes, ATTAIN_DIFF_FUZZ_ITERS scales the
// random budget (CI's sanitizer job sets 30000; the default is 10000).
int fuzz_iters(int base) {
  if (const char* env = std::getenv("ATTAIN_DIFF_FUZZ_ITERS")) {
    const long total = std::atol(env);
    if (total > 0) return static_cast<int>(base * total / 10000);
  }
  return base;
}

// Real records: a Fig. 11 cell, a Table II cell, a volumetric cell and a
// cell whose every attempt threw, each as the runner finished it.
const std::vector<Bytes>& real_records() {
  static const std::vector<Bytes> records = [] {
    std::vector<RunSpec> grid = {scenario::fig11_grid(4, 1, kSecond, kSecond).at(3),
                                 scenario::table2_grid().at(2), quick_volumetric_grid().at(0),
                                 custom_spec("throws", [](const RunSpec&) -> scenario::RunResultPtr {
                                   throw std::runtime_error("cell threw on purpose");
                                 })};
    const sweep::SweepReport report = reference_run(grid);
    std::vector<Bytes> out;
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      ByteWriter w;
      sweep::write_outcome(w, i, report.cells[i]);
      out.push_back(std::move(w).take());
    }
    return out;
  }();
  return records;
}

/// Decodes `bytes`; true when a record came back, false on DecodeError.
/// Any other exception escapes and fails the test.
bool decodes(std::span<const std::uint8_t> bytes) {
  try {
    ByteReader r(bytes);
    sweep::read_outcome(r);
    return true;
  } catch (const DecodeError&) {
    return false;
  }
}

TEST(OutcomeRecordFuzz, RealRecordsRoundTrip) {
  const std::vector<Bytes>& records = real_records();
  ASSERT_EQ(records.size(), 4u);
  const sweep::CellStatus expected[] = {sweep::CellStatus::Ok, sweep::CellStatus::Ok,
                                        sweep::CellStatus::Ok, sweep::CellStatus::Failed};
  for (std::size_t i = 0; i < records.size(); ++i) {
    ByteReader r(records[i]);
    const sweep::OutcomeRecord rec = sweep::read_outcome(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(rec.index, i);
    EXPECT_EQ(rec.outcome.status, expected[i]);
    ByteWriter again;
    sweep::write_outcome(again, rec.index, rec.outcome);
    EXPECT_EQ(again.bytes(), records[i]) << "record " << i;
  }
}

TEST(OutcomeRecordFuzz, TruncationsAndByteFlipsOnlyEverThrowDecodeError) {
  Rng rng(17);
  for (const Bytes& record : real_records()) {
    // Every field is needed, so no strict prefix decodes.
    for (std::size_t len = 0; len < record.size(); ++len) {
      EXPECT_FALSE(decodes({record.data(), len})) << "prefix of " << len << " bytes";
    }
    Bytes flipped = record;
    for (std::size_t at = 0; at < record.size(); ++at) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xFF}) {
        flipped[at] ^= mask;
        decodes(flipped);
        flipped[at] ^= mask;
      }
    }
    for (int i = 0; i < fuzz_iters(2500); ++i) {
      const std::size_t at = rng.next_below(record.size());
      flipped[at] = static_cast<std::uint8_t>(rng.next_u64());
      decodes(flipped);
      flipped[at] = record[at];
    }
  }
}

TEST(OutcomeRecordFuzz, JournalKeepsOnlyTheIntactPrefix) {
  const std::vector<Bytes>& records = real_records();
  const std::size_t cells = records.size();
  const std::string path = temp_path("journal");
  // A journal body is the record plus its result digest, sealed.
  auto sealed_body = [](std::span<const std::uint8_t> record_bytes) {
    ByteWriter w;
    w.raw(record_bytes);
    std::uint64_t digest = 0;
    try {
      ByteReader r(record_bytes);
      const sweep::OutcomeRecord rec = sweep::read_outcome(r);
      if (rec.outcome.result) digest = scenario::result_digest(*rec.outcome.result);
    } catch (const DecodeError&) {
    }
    w.u64(digest);
    return snap::wire::seal(std::move(w));
  };
  // Intact records 0..2, then the mangled copy of record 3, then record 3
  // intact: if the mangled frame is dropped, everything after it goes too.
  auto resume_with = [&](std::span<const std::uint8_t> mangled) {
    {
      sweep::CampaignJournal::create(path, 0xC0FFEE, cells);
      const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
      EXPECT_GE(fd, 0);
      for (std::size_t i = 0; i + 1 < cells; ++i) {
        EXPECT_TRUE(snap::wire::write_frame(fd, sealed_body(records[i])));
      }
      EXPECT_TRUE(snap::wire::write_frame(fd, sealed_body(mangled)));
      EXPECT_TRUE(snap::wire::write_frame(fd, sealed_body(records.back())));
      ::close(fd);
    }
    std::vector<sweep::OutcomeRecord> loaded;
    sweep::CampaignJournal::resume(path, 0xC0FFEE, cells, loaded);
    return loaded;
  };

  const Bytes& last = records.back();
  for (std::size_t len = 0; len < last.size(); ++len) {
    const std::vector<sweep::OutcomeRecord> loaded = resume_with({last.data(), len});
    ASSERT_EQ(loaded.size(), cells - 1) << "prefix of " << len << " bytes";
    for (std::size_t i = 0; i < loaded.size(); ++i) EXPECT_EQ(loaded[i].index, i);
  }
  // Byte flips through a result-carrying record: a flip either leaves a
  // well-formed record (an index, attempt count, wall time or result field
  // that still decodes) or ends the load right there.
  const Bytes& victim = records.front();
  Bytes flipped = victim;
  for (std::size_t at = 0; at < victim.size(); ++at) {
    flipped[at] ^= 0xFF;
    const std::vector<sweep::OutcomeRecord> loaded = resume_with(flipped);
    flipped[at] ^= 0xFF;
    ASSERT_TRUE(loaded.size() == cells - 1 || loaded.size() == cells + 1) << "flip at " << at;
    for (std::size_t i = 0; i + 1 < cells; ++i) EXPECT_EQ(loaded[i].index, i);
  }
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
