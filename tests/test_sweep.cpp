// Sweep engine: parallel == serial determinism (byte-identical JSON),
// failure isolation, retry, timeout accounting, the RunSpec/RunResult API,
// the controller registry, and the field-order-stable JSON writer.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "common/json.hpp"
#include "ctl/pox.hpp"
#include "scenario/experiment.hpp"
#include "sweep/sweep.hpp"

namespace attain {
namespace {

using scenario::ControllerKind;
using scenario::ExperimentKind;
using scenario::RunSpec;

// ---------------------------------------------------------------------------
// JSON writer.
// ---------------------------------------------------------------------------

TEST(JsonWriter, ObjectsArraysAndEscaping) {
  JsonWriter w;
  w.begin_object();
  w.field("name", std::string("a\"b\\c\nd"));
  w.field("count", std::uint64_t{3});
  w.field("neg", std::int64_t{-7});
  w.field("flag", true);
  w.key("list").begin_array();
  w.value(1.5);
  w.null();
  w.begin_object().field("k", "v").end_object();
  w.end_array();
  w.field_or_null("absent", std::nullopt);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"count\":3,\"neg\":-7,\"flag\":true,"
            "\"list\":[1.5,null,{\"k\":\"v\"}],\"absent\":null}");
}

TEST(JsonWriter, DoubleFormatIsStable) {
  EXPECT_EQ(JsonWriter::format_double(0.0), "0");
  EXPECT_EQ(JsonWriter::format_double(-0.0), "0");
  EXPECT_EQ(JsonWriter::format_double(2.5), "2.5");
  EXPECT_EQ(JsonWriter::format_double(1.0 / 3.0), "0.333333333");
}

// ---------------------------------------------------------------------------
// Controller registry.
// ---------------------------------------------------------------------------

TEST(ControllerRegistry, NamesRoundTrip) {
  for (const ControllerKind kind : ctl::all_controller_kinds()) {
    const std::string name = ctl::to_string(kind);
    EXPECT_EQ(ctl::controller_kind_from_name(name), kind);
  }
  EXPECT_EQ(ctl::controller_kind_from_name("pox"), ControllerKind::Pox);
  EXPECT_EQ(ctl::controller_kind_from_name("FLOODLIGHT"), ControllerKind::Floodlight);
  EXPECT_EQ(ctl::controller_kind_from_name("opendaylight"), std::nullopt);
}

TEST(ControllerRegistry, MakeControllerBuildsEveryKind) {
  sim::Scheduler sched;
  for (const ControllerKind kind : ctl::all_controller_kinds()) {
    const auto controller = ctl::make_controller(kind, sched);
    ASSERT_NE(controller, nullptr);
    EXPECT_FALSE(controller->name().empty());
  }
  // Negative delay keeps the registered default; an explicit delay wins.
  const auto pox = ctl::make_controller(ControllerKind::Pox, sched, 123);
  EXPECT_NE(pox, nullptr);
  EXPECT_EQ(ctl::controller_entry(ControllerKind::Pox).default_processing_delay,
            ctl::PoxL2Learning::kDefaultProcessingDelay);
}

// ---------------------------------------------------------------------------
// RunSpec / grids.
// ---------------------------------------------------------------------------

TEST(RunSpec, DerivedIdsAreStable) {
  RunSpec spec;
  spec.experiment = ExperimentKind::FlowModSuppression;
  spec.controller = ControllerKind::Ryu;
  spec.attack_enabled = false;
  EXPECT_EQ(spec.id(), "suppression/Ryu/baseline");

  spec.experiment = ExperimentKind::ConnectionInterruption;
  spec.attack_enabled = true;
  spec.options.fail_secure = true;
  EXPECT_EQ(spec.id(), "interruption/Ryu/fail-secure");

  spec.name = "my-cell";
  EXPECT_EQ(spec.id(), "my-cell");
}

TEST(RunSpec, PaperGridsCoverEveryCell) {
  const auto table2 = scenario::table2_grid();
  ASSERT_EQ(table2.size(), 6u);
  EXPECT_EQ(table2.front().id(), "interruption/Floodlight/fail-safe");
  EXPECT_EQ(table2.back().id(), "interruption/Ryu/fail-secure");

  const auto fig11 = scenario::fig11_grid();
  ASSERT_EQ(fig11.size(), 6u);
  EXPECT_EQ(fig11.front().id(), "suppression/Floodlight/baseline");
  EXPECT_EQ(fig11.back().id(), "suppression/Ryu/attack");
}

TEST(RunSpec, CustomWithoutRunnerThrows) {
  RunSpec spec;
  spec.experiment = ExperimentKind::Custom;
  EXPECT_THROW(scenario::run(spec), std::invalid_argument);
}

// A minimal custom result for the custom-cell tests below.
class TokenResult : public scenario::RunResult {
 public:
  explicit TokenResult(std::uint64_t token) : token_(token) {}
  std::string kind_name() const override { return "token"; }
  scenario::TableRow row() const override { return {{"token", std::to_string(token_)}}; }
  scenario::RunResultPtr clone() const override { return std::make_unique<TokenResult>(*this); }
  void fields(scenario::FieldCodec& codec) override { codec.field("token", token_); }

 private:
  std::uint64_t token_;
};

RunSpec custom_spec(std::string name, std::function<scenario::RunResultPtr(const RunSpec&)> fn) {
  RunSpec spec;
  spec.experiment = ExperimentKind::Custom;
  spec.name = std::move(name);
  spec.custom = std::move(fn);
  return spec;
}

// ---------------------------------------------------------------------------
// Sweep engine.
// ---------------------------------------------------------------------------

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

TEST(Sweep, ParallelResultsAreByteIdenticalToSerial) {
  const std::vector<RunSpec> grid = {
      quick_suppression(ControllerKind::Pox, false),
      quick_suppression(ControllerKind::Pox, true),
      quick_suppression(ControllerKind::Ryu, false),
      quick_suppression(ControllerKind::Ryu, true),
  };

  sweep::SweepOptions serial_options;
  serial_options.threads = 1;
  const sweep::SweepReport serial = sweep::SweepRunner(serial_options).run(grid);

  sweep::SweepOptions parallel_options;
  parallel_options.threads = 4;
  const sweep::SweepReport parallel = sweep::SweepRunner(parallel_options).run(grid);

  ASSERT_EQ(serial.cells.size(), grid.size());
  ASSERT_EQ(serial.ok(), grid.size());
  ASSERT_EQ(parallel.ok(), grid.size());
  EXPECT_EQ(serial.results_json(), parallel.results_json());

  // The attack cells really did something different from the baselines.
  const auto* baseline = serial.find("suppression/POX/baseline");
  const auto* attacked = serial.find("suppression/POX/attack");
  ASSERT_NE(baseline, nullptr);
  ASSERT_NE(attacked, nullptr);
  EXPECT_NE(baseline->result->to_json(), attacked->result->to_json());
}

TEST(Sweep, FailingCellDoesNotPoisonSiblings) {
  std::vector<RunSpec> grid;
  grid.push_back(quick_suppression(ControllerKind::Pox, false));
  grid.push_back(custom_spec("exploding-cell", [](const RunSpec&) -> scenario::RunResultPtr {
    throw std::runtime_error("boom: injected cell failure");
  }));
  grid.push_back(quick_suppression(ControllerKind::Ryu, false));

  sweep::SweepOptions options;
  options.threads = 3;
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  ASSERT_EQ(report.cells.size(), 3u);
  EXPECT_EQ(report.ok(), 2u);
  EXPECT_EQ(report.failed(), 1u);

  const sweep::CellOutcome& failed = report.cells[1];
  EXPECT_EQ(failed.status, sweep::CellStatus::Failed);
  EXPECT_EQ(failed.result, nullptr);
  EXPECT_NE(failed.error.find("boom"), std::string::npos);

  EXPECT_EQ(report.cells[0].status, sweep::CellStatus::Ok);
  EXPECT_EQ(report.cells[2].status, sweep::CellStatus::Ok);
  ASSERT_NE(report.cells[0].result, nullptr);
  ASSERT_NE(report.cells[2].result, nullptr);

  // The failed cell is reported as "failed" with a null result in JSON.
  EXPECT_NE(report.results_json().find("\"status\":\"failed\""), std::string::npos);
  EXPECT_NE(report.results_json().find("\"result\":null"), std::string::npos);
}

TEST(Sweep, RetriesRecoverFlakyCells) {
  auto flaky_attempts = std::make_shared<std::atomic<int>>(0);
  const RunSpec flaky =
      custom_spec("flaky-cell", [flaky_attempts](const RunSpec&) -> scenario::RunResultPtr {
        if (flaky_attempts->fetch_add(1) == 0) throw std::runtime_error("transient");
        return std::make_unique<TokenResult>(42);
      });

  sweep::SweepOptions options;
  options.threads = 1;
  options.max_attempts = 2;
  const sweep::SweepReport report = sweep::SweepRunner(options).run({flaky});

  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].status, sweep::CellStatus::Ok);
  EXPECT_EQ(report.cells[0].attempts, 2u);
  EXPECT_TRUE(report.cells[0].error.empty());
  ASSERT_NE(report.cells[0].result, nullptr);
  EXPECT_NE(report.cells[0].result->to_json().find("\"token\":42"), std::string::npos);
}

TEST(Sweep, SlowCellIsFlaggedTimedOutButKeepsItsResult) {
  const RunSpec slow = custom_spec("slow-cell", [](const RunSpec&) -> scenario::RunResultPtr {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return std::make_unique<TokenResult>(7);
  });

  sweep::SweepOptions options;
  options.threads = 1;
  options.cell_timeout_seconds = 0.001;
  const sweep::SweepReport report = sweep::SweepRunner(options).run({slow});

  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_EQ(report.cells[0].status, sweep::CellStatus::TimedOut);
  ASSERT_NE(report.cells[0].result, nullptr);  // cooperative timeout: result kept
}

TEST(Sweep, ProgressCallbackSeesEveryCell) {
  const std::vector<RunSpec> grid = {
      quick_suppression(ControllerKind::Pox, false),
      quick_suppression(ControllerKind::Ryu, false),
  };
  std::vector<std::string> seen;
  std::size_t last_total = 0;

  sweep::SweepOptions options;
  options.threads = 2;
  options.on_progress = [&](const sweep::Progress& p) {
    seen.push_back(p.cell->spec.id());  // serialized by the runner
    last_total = p.total;
  };
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  EXPECT_EQ(report.ok(), 2u);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(last_total, 2u);
}

// Retried cells must not double-count toward Progress: the callback fires
// exactly once per cell, after its outcome is final, and `completed`
// marches 1..total even when the middle cell consumes two attempts.
TEST(Sweep, RetriedCellsCountOnceInProgress) {
  auto flaky_attempts = std::make_shared<std::atomic<int>>(0);
  const std::vector<RunSpec> grid = {
      quick_suppression(ControllerKind::Pox, false),
      custom_spec("deterministic-flake",
                  [flaky_attempts](const RunSpec&) -> scenario::RunResultPtr {
                    if (flaky_attempts->fetch_add(1) == 0) {
                      throw std::runtime_error("first attempt always fails");
                    }
                    return std::make_unique<TokenResult>(9);
                  }),
      quick_suppression(ControllerKind::Ryu, false),
  };

  std::vector<std::size_t> completed_values;
  std::vector<std::string> seen_ids;
  sweep::SweepOptions options;
  options.threads = 1;
  options.max_attempts = 2;
  options.on_progress = [&](const sweep::Progress& p) {
    completed_values.push_back(p.completed);
    seen_ids.push_back(p.cell->spec.id());
    EXPECT_EQ(p.total, grid.size());
  };
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  EXPECT_EQ(report.ok(), 3u);
  EXPECT_EQ(report.cells[1].attempts, 2u);
  // One notification per cell — the retry did not produce an extra one —
  // and the counter never skips or repeats.
  EXPECT_EQ(completed_values, (std::vector<std::size_t>{1, 2, 3}));
  ASSERT_EQ(seen_ids.size(), grid.size());
  for (const RunSpec& spec : grid) {
    EXPECT_EQ(std::count(seen_ids.begin(), seen_ids.end(), spec.id()), 1)
        << "cell " << spec.id() << " notified a wrong number of times";
  }
}

TEST(Sweep, ReportAccountsVirtualTime) {
  const std::vector<RunSpec> grid = {quick_suppression(ControllerKind::Pox, false)};
  sweep::SweepOptions options;
  options.threads = 1;
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);

  ASSERT_EQ(report.ok(), 1u);
  // The quick suppression cell simulates ~39 virtual seconds.
  EXPECT_GE(report.total_virtual_time(), seconds(35));
  EXPECT_GT(report.cells[0].result->events_executed, 0u);
  EXPECT_GT(report.wall_seconds, 0.0);
  EXPECT_GT(report.time_compression(), 0.0);
  EXPECT_NE(report.to_json().find("\"timing\""), std::string::npos);
  // The deterministic document carries no wall-clock fields.
  EXPECT_EQ(report.results_json().find("wall_seconds"), std::string::npos);
}

}  // namespace
}  // namespace attain
