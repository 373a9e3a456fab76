// End-to-end benchmark of the ATTAIN testbed: runs one workload (fig11,
// flood or campaign, see workloads.hpp) through the public scenario/sweep
// API for a fixed wall budget, checks every timed cell's output, and prints
// the metrics as the last stdout line, one JSON object:
//
//   e2e_bench --workload fig11 --seed 1 --seconds 25 --trace 0 [--scratch DIR]
//
// --trace 0 reports the end-to-end metrics (setup_s, cells_per_s,
// cell_ms_p50, peak_rss_mb); --trace 1 reports per-layer metrics from spans
// the benchmark records around its own calls into each module, from the
// deterministic counters results carry, and from short replays
// (replay.hpp). Progress and diagnostics go to stderr; human-readable
// summary lines (fingerprint, sample counts, tracing overhead) go to stdout
// before the JSON line. NOTES.md explains the choices.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/bytes.hpp"
#include "common/log.hpp"
#include "replay.hpp"
#include "scenario/experiment.hpp"
#include "scenario/run.hpp"
#include "stats.hpp"
#include "sweep/distributed.hpp"
#include "sweep/sweep.hpp"
#include "workloads.hpp"

namespace {

using namespace attain;
using e2e::Workload;
using scenario::RunResult;
using scenario::RunResultPtr;
using scenario::RunSpec;
using Clock = std::chrono::steady_clock;

/// Set-up repeats per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Threads for the untimed reference runs (one core is left to the rest of
/// the machine).
constexpr unsigned kReferenceThreads = 3;
/// Flow-table size for the match replays on the enterprise workloads
/// (the flood workload derives its own from the cells' peak occupancy).
constexpr std::size_t kEnterpriseMatchEntries = 64;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  Workload workload{Workload::Fig11};
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  std::string scratch{".bench_build/e2e_scratch"};
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        const std::optional<Workload> w = e2e::parse_workload(value);
        if (!w) return std::nullopt;
        args.workload = *w;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (key == "--scratch") {
        args.scratch = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory around the benchmark's calls into each module,
// written out when the run ends. Layer spans are children of their cell.
// ---------------------------------------------------------------------------

enum class Layer : std::uint8_t { Cell, TopoBuild, ScenarioBuild, Advance, Finish, Serialize };

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Cell:
      return "cell";
    case Layer::TopoBuild:
      return "topo.build";
    case Layer::ScenarioBuild:
      return "scenario.build";
    case Layer::Advance:
      return "scenario.advance";
    case Layer::Finish:
      return "scenario.finish";
    case Layer::Serialize:
      return "scenario.serialize";
  }
  return "?";
}

struct Span {
  Layer layer;
  std::uint32_t cell;  // the parent: index into Tracer::cell_ids
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) { spans_.reserve(1u << 14); }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  std::uint32_t begin_cell(const std::string& id) {
    cell_ids_.push_back(id);
    return static_cast<std::uint32_t>(cell_ids_.size() - 1);
  }
  void record(Layer layer, std::uint32_t cell, std::int64_t start, std::int64_t end) {
    spans_.push_back({layer, cell, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Scheduler events the traced cells executed (sim.ns_per_event's base).
  void add_events(std::uint64_t n) { events_ += n; }
  std::uint64_t events() const { return events_; }

  /// One JSON object per line: name, start/end (ns since the tracer was
  /// created), and the parent cell (its sequence number and spec id).
  void write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << layer_name(s.layer) << "\",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"cell\":" << s.cell << ",\"cell_id\":\""
          << cell_ids_[s.cell] << "\"}\n";
    }
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::string> cell_ids_;
  std::uint64_t events_{0};
};

// ---------------------------------------------------------------------------
// One in-process cell through the phased public API: the same calls
// scenario::run() makes, split so each layer can carry a span, plus the
// result serialization every campaign pays (JSON, binary round trip,
// digest).
// ---------------------------------------------------------------------------

struct CellRun {
  RunResultPtr result;
  std::uint64_t digest{0};
  double wall_s{0.0};
  std::string error;
};

CellRun run_cell(const RunSpec& spec, Tracer* tracer) {
  CellRun out;
  const auto t0 = Clock::now();
  const std::uint32_t cell = tracer != nullptr ? tracer->begin_cell(spec.id()) : 0;
  const std::int64_t cell_start = tracer != nullptr ? tracer->now_ns() : 0;
  std::int64_t mark = cell_start;
  auto span = [&](Layer layer) {
    if (tracer == nullptr) return;
    const std::int64_t now = tracer->now_ns();
    tracer->record(layer, cell, mark, now);
    mark = now;
  };
  try {
    if (tracer != nullptr) {
      // Replay of the topology generation warm_up() performs internally,
      // so its cost can be split out of scenario.build.
      topo::BuildOptions build;
      build.chokepoint_fail_secure = spec.options.fail_secure;
      const topo::SystemModel model = topo::build_model(spec.topology, build);
      if (model.hosts().empty()) throw std::runtime_error("empty topology");
      span(Layer::TopoBuild);
    }
    scenario::WarmupPhasePtr phase = scenario::warm_up(scenario::warmup_representative(spec));
    span(Layer::ScenarioBuild);
    phase->advance_to(scenario::fork_time(spec));
    span(Layer::Advance);
    out.result = phase->finish(spec);
    phase.reset();
    mem::run_boundary();
    span(Layer::Finish);
    if (tracer != nullptr) tracer->add_events(out.result->events_executed);
    const std::string json = out.result->to_json();
    ByteWriter w;
    scenario::save_result(*out.result, w);
    ByteReader r(w.bytes());
    const RunResultPtr back = scenario::load_result(r);
    out.digest = scenario::result_digest(*back);
    if (json.empty() || out.digest != fnv1a64(w.bytes())) {
      out.error = "result changed in its binary round trip";
    }
    span(Layer::Serialize);
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  out.wall_s = since(t0);
  if (tracer != nullptr) tracer->record(Layer::Cell, cell, cell_start, tracer->now_ns());
  if (out.error.empty() && out.wall_s > e2e::pinned::kCellTimeoutSeconds) out.error = "timed out";
  return out;
}

// ---------------------------------------------------------------------------
// Metrics plumbing.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is KiB on Linux; children covers the largest reaped
  // descendant (campaign workers and their snapshot tails).
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

/// Deterministic per-layer counters summed over one pass of results.
struct Counters {
  std::uint64_t events{0};
  std::uint64_t interposed{0};
  std::uint64_t suppressed{0};
  std::uint64_t programs{0};
  std::uint64_t guard_skips{0};
  std::uint64_t codec_ops_saved{0};
  std::uint64_t packet_ins{0};
  std::uint64_t packet_outs{0};
  std::uint64_t flow_mods{0};
  std::uint64_t table_misses{0};
  std::uint64_t flow_mods_rejected{0};
  std::uint64_t entries_peak{0};  // largest fabric-wide peak of any cell
  std::uint64_t data_packets{0};

  void add(const RunResult& r) {
    events += r.events_executed;
    interposed += r.messages_interposed;
    suppressed += r.messages_suppressed;
    programs += r.programs_executed;
    guard_skips += r.rules_skipped_by_guard;
    codec_ops_saved += r.codec_ops_saved;
    if (const auto* s = dynamic_cast<const scenario::SuppressionResult*>(&r)) {
      packet_ins += s->packet_ins;
      packet_outs += s->packet_outs;
      flow_mods += s->flow_mods_observed;
      data_packets += s->data_packets_delivered;
    }
    if (const auto* v = dynamic_cast<const scenario::VolumetricResult*>(&r)) {
      packet_ins += v->packet_ins;
      packet_outs += v->packet_outs;
      flow_mods += v->flow_mods_observed;
      table_misses += v->table_misses;
      flow_mods_rejected += v->flow_mods_rejected;
      entries_peak = std::max(entries_peak, v->table_entries_peak);
    }
  }
};

/// Per-layer time totals over the traced cells.
struct SpanTotals {
  std::size_t cells{0};
  double ns[6]{};  // indexed by Layer
  std::uint64_t events{0};

  static SpanTotals from(const Tracer& tracer) {
    SpanTotals t;
    t.events = tracer.events();
    for (const Span& s : tracer.spans()) {
      t.ns[static_cast<int>(s.layer)] += static_cast<double>(s.ns());
      if (s.layer == Layer::Cell) ++t.cells;
    }
    return t;
  }
  double per_cell(Layer layer) const {
    return cells == 0 ? 0.0 : ns[static_cast<int>(layer)] / static_cast<double>(cells);
  }
  /// Share of cell wall time the layer spans account for.
  double coverage() const {
    const double children = ns[1] + ns[2] + ns[3] + ns[4] + ns[5];
    return ns[0] > 0.0 ? children / ns[0] : 0.0;
  }
};

/// What a workload run hands to the report.
struct Measured {
  std::vector<double> setup_s;
  std::size_t timed_cells{0};
  double timed_wall_s{0.0};
  std::vector<double> cell_ms;
  double peak_rss_mb{0.0};
  e2e::Tally tally;
  Counters counters;
  std::uint64_t grid_digest{0};
  std::uint64_t results_digest{0};
  double slab_reserved_mb{0.0};
  std::size_t match_entries{kEnterpriseMatchEntries};
  // Traced runs only.
  std::optional<SpanTotals> spans;
  double traced_cells_per_s{0.0};
  double untraced_cells_per_s{0.0};
  // Campaign only.
  std::vector<double> dispatch_ms_per_cell;
  std::size_t warm_cells{0};
  std::size_t journal_records{0};
  std::size_t respawns{0};
};

/// Cold in-process reference digests (scenario::run via a thread-pool
/// SweepRunner) for every grid cell, computed after the timed region; also
/// fills the fingerprint and the per-layer counters.
std::vector<std::uint64_t> reference_digests(const std::vector<RunSpec>& grid, Measured& m) {
  sweep::SweepOptions options;
  options.threads = kReferenceThreads;
  options.max_attempts = 1;
  options.warm_start = false;
  const sweep::SweepReport report = sweep::SweepRunner(options).run(grid);
  std::vector<std::uint64_t> digests;
  std::string all;
  for (const sweep::CellOutcome& cell : report.cells) {
    if (cell.status != sweep::CellStatus::Ok) {
      throw std::runtime_error("reference run of " + cell.spec.id() + " failed: " + cell.error);
    }
    digests.push_back(scenario::result_digest(*cell.result));
    all += std::to_string(digests.back()) + "\n";
    m.counters.add(*cell.result);
  }
  m.results_digest = fnv1a64(all);
  return digests;
}

/// Per timed cell, in run order: the first failure reason (empty when the
/// cell passed its own checks) and its result digest.
struct TimedCells {
  std::vector<std::string> reasons;
  std::vector<std::uint64_t> digests;
  std::vector<std::size_t> grid_index;

  void add(std::size_t index, std::string reason, std::uint64_t digest) {
    grid_index.push_back(index);
    reasons.push_back(std::move(reason));
    digests.push_back(digest);
  }

  /// Counts every cell into `tally`; a cell that passed its own checks
  /// still fails when its digest differs from the cold reference.
  void tally(const std::vector<std::uint64_t>& reference, e2e::Tally& out) const {
    for (std::size_t k = 0; k < reasons.size(); ++k) {
      if (!reasons[k].empty()) {
        out.record(reasons[k]);
      } else if (digests[k] != reference[grid_index[k]]) {
        out.record("result differs from a cold scenario::run()");
      } else {
        out.record("");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// fig11 and flood: one in-process runner on this thread, whole grid passes.
// ---------------------------------------------------------------------------

struct Prepared {
  std::vector<RunSpec> grid;
  std::size_t edge_switches{0};
  std::size_t switches{0};
};

/// Seed -> grid, topology generation, and the workload's untimed warm cell.
Prepared prepare(Workload workload, std::uint64_t seed) {
  Prepared p;
  p.grid = e2e::make_grid(workload, seed);
  const topo::TopologySpec topology =
      workload == Workload::Flood ? e2e::flood_topology() : topo::TopologySpec::enterprise();
  const topo::SystemModel model = topo::build_model(topology);
  p.edge_switches = e2e::edge_switch_count(model);
  p.switches = model.switches().size();
  // The untimed warm cell fills the thread slab the timed cells reuse:
  // the grid's first cell (the Floodlight baseline) on fig11 and campaign,
  // the first attack cell on flood.
  const RunSpec* warm = &p.grid.front();
  if (workload == Workload::Flood) warm = &p.grid.at(1);
  const CellRun run = run_cell(*warm, nullptr);
  if (!run.error.empty()) throw std::runtime_error("warm cell " + warm->id() + ": " + run.error);
  return p;
}

void run_in_process(const Args& args, Measured& m) {
  Prepared p;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    p = prepare(args.workload, args.seed);
    m.setup_s.push_back(since(t0));
  }
  const std::vector<RunSpec>& grid = p.grid;
  const std::vector<long> baselines = e2e::baseline_index(grid);
  m.grid_digest = scenario::grid_digest(grid);

  Tracer tracer;
  TimedCells timed;
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  std::size_t traced_cells = 0;
  for (std::size_t pass = 0;; ++pass) {
    // Timing goes on until the median has ten samples beyond it.
    const bool done_timing =
        m.timed_wall_s >= args.seconds && e2e::percentile(m.cell_ms, 50.0).has_value();
    if (done_timing && (!args.trace || pass >= 2)) break;
    // Traced runs alternate untraced and traced passes, so the tracing
    // overhead is measured within one process.
    const bool traced = args.trace && pass % 2 == 1;
    std::vector<CellRun> runs;
    runs.reserve(grid.size());
    const auto t0 = Clock::now();
    for (const RunSpec& spec : grid) runs.push_back(run_cell(spec, traced ? &tracer : nullptr));
    const double wall = since(t0);

    m.timed_wall_s += wall;
    m.timed_cells += grid.size();
    (traced ? traced_wall : untraced_wall) += wall;
    if (traced) traced_cells += grid.size();
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!traced) m.cell_ms.push_back(runs[i].wall_s * 1e3);
      std::string reason = runs[i].error;
      if (reason.empty()) {
        const RunResult* base = baselines[i] >= 0 ? runs[baselines[i]].result.get() : nullptr;
        reason = e2e::check_cell(grid[i], *runs[i].result, base, p.edge_switches);
      }
      timed.add(i, std::move(reason), runs[i].digest);
    }
    std::fprintf(stderr, "pass %zu%s: %zu cells in %.2f s\n", pass, traced ? " (traced)" : "",
                 grid.size(), wall);
  }
  m.peak_rss_mb = peak_rss_mb();
  m.slab_reserved_mb =
      static_cast<double>(mem::thread_slab().arena_stats().bytes_reserved) / (1024.0 * 1024.0);

  timed.tally(reference_digests(grid, m), m.tally);
  if (args.workload == Workload::Flood && p.switches > 0) {
    m.match_entries = std::max<std::size_t>(1, m.counters.entries_peak / p.switches);
  }
  if (args.trace) {
    m.spans = SpanTotals::from(tracer);
    m.traced_cells_per_s = static_cast<double>(traced_cells) / traced_wall;
    m.untraced_cells_per_s =
        static_cast<double>(m.timed_cells - traced_cells) / untraced_wall;
    const std::string path = args.scratch + "/trace-" + e2e::to_string(args.workload) + "-" +
                             std::to_string(args.seed) + ".jsonl";
    tracer.write(path);
    std::fprintf(stderr, "spans written to %s\n", path.c_str());
  }
}

// ---------------------------------------------------------------------------
// campaign: one DistributedRunner, whole campaigns back to back.
// ---------------------------------------------------------------------------

sweep::DistributedOptions campaign_options(const std::string& journal) {
  sweep::DistributedOptions o;
  o.workers = e2e::pinned::kWorkers;
  o.max_attempts = 1;
  o.cell_timeout_seconds = e2e::pinned::kCellTimeoutSeconds;
  o.warm_start = true;
  o.warm_tail_processes = e2e::pinned::kWarmTailsPerWorker;
  o.in_flight_per_worker = e2e::pinned::kInFlightPerWorker;
  o.journal_path = journal;
  o.resume = false;
  o.max_cell_respawns = 2;
  o.worker_timeout_seconds = 0.0;
  return o;
}

std::string outcome_reason(const sweep::CellOutcome& cell) {
  switch (cell.status) {
    case sweep::CellStatus::Ok:
      return "";
    case sweep::CellStatus::Failed:
      return "threw: " + cell.error;
    case sweep::CellStatus::TimedOut:
      return "timed out";
  }
  return "unknown status";
}

void run_campaign(const Args& args, Measured& m) {
  if (!sweep::distributed_supported()) {
    throw std::runtime_error("campaign workload needs fork(); this platform has none");
  }
  const std::string tag = std::to_string(::getpid());
  const std::string setup_journal = args.scratch + "/setup-" + tag + ".journal";
  const std::string journal = args.scratch + "/campaign-" + tag + ".journal";
  Prepared p;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const auto t0 = Clock::now();
    p = prepare(args.workload, args.seed);
    // Worker start-up: a two-cell campaign whose cells have different
    // warm-up signatures, so each worker is forked and serves one.
    std::vector<RunSpec> probe;
    for (const RunSpec& spec : p.grid) {
      if (spec.experiment == scenario::ExperimentKind::ConnectionInterruption &&
          spec.attack_start == e2e::pinned::kTable2PaperStart && !spec.options.fail_secure &&
          spec.controller != scenario::ControllerKind::Floodlight) {
        probe.push_back(spec);
      }
    }
    const sweep::DistributedReport r =
        sweep::DistributedRunner(campaign_options(setup_journal)).run(probe);
    if (r.sweep.ok() != probe.size()) throw std::runtime_error("set-up campaign failed");
    m.setup_s.push_back(since(t0));
  }
  const std::vector<RunSpec>& grid = p.grid;
  const std::vector<long> baselines = e2e::baseline_index(grid);
  m.grid_digest = scenario::grid_digest(grid);

  const sweep::DistributedRunner runner(campaign_options(journal));
  TimedCells timed;
  for (std::size_t n = 0; n == 0 || m.timed_wall_s < args.seconds ||
                          !e2e::percentile(m.cell_ms, 50.0).has_value();
       ++n) {
    const auto t0 = Clock::now();
    const sweep::DistributedReport report = runner.run(grid);
    const double wall = since(t0);
    m.timed_wall_s += wall;
    m.timed_cells += grid.size();

    double cell_wall = 0.0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const sweep::CellOutcome& cell = report.sweep.cells[i];
      cell_wall += cell.wall_seconds;
      m.cell_ms.push_back(cell.wall_seconds * 1e3);
      std::string reason = outcome_reason(cell);
      std::uint64_t digest = 0;
      if (reason.empty()) {
        const RunResult* base =
            baselines[i] >= 0 ? report.sweep.cells[baselines[i]].result.get() : nullptr;
        reason = e2e::check_cell(grid[i], *cell.result, base, p.edge_switches);
        digest = scenario::result_digest(*cell.result);
      }
      timed.add(i, std::move(reason), digest);
      const double slab = static_cast<double>(cell.worker_slab_reserved) / (1024.0 * 1024.0);
      m.slab_reserved_mb = std::max(m.slab_reserved_mb, slab);
    }
    m.dispatch_ms_per_cell.push_back(
        e2e::dispatch_ms_per_cell(report.workers, wall, cell_wall, grid.size()));
    if (n == 0) {
      m.warm_cells = report.sweep.warm_cells;
      m.journal_records = report.journal_records;
    }
    m.respawns += report.respawns;
    std::fprintf(stderr, "campaign %zu: %zu cells in %.2f s (%zu warm, %zu respawns)\n", n,
                 grid.size(), wall, report.sweep.warm_cells, report.respawns);
  }
  m.peak_rss_mb = peak_rss_mb();
  std::filesystem::remove(journal);
  std::filesystem::remove(setup_journal);

  timed.tally(reference_digests(grid, m), m.tally);
  if (args.trace) {
    // Cells ran in forked workers; the scenario.* spans come from one
    // in-process traced pass over the campaign's Table II cells.
    Tracer tracer;
    for (const RunSpec& spec : grid) {
      if (spec.experiment != scenario::ExperimentKind::ConnectionInterruption) continue;
      const CellRun run = run_cell(spec, &tracer);
      if (!run.error.empty()) {
        throw std::runtime_error("traced cell " + spec.id() + ": " + run.error);
      }
    }
    m.spans = SpanTotals::from(tracer);
    tracer.write(args.scratch + "/trace-campaign-" + std::to_string(args.seed) + ".jsonl");
  }
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

std::vector<Metric> end_to_end_metrics(const Measured& m) {
  const std::optional<e2e::Quantile> p50 = e2e::percentile(m.cell_ms, 50.0);
  if (!p50) throw std::runtime_error("too few cells for a supported median");
  return {
      {"setup_s", e2e::median(m.setup_s), "s"},
      {"cells_per_s", static_cast<double>(m.timed_cells) / m.timed_wall_s, "1/s"},
      {"cell_ms_p50", p50->value, "ms"},
      {"peak_rss_mb", m.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> per_layer_metrics(const Measured& m, const e2e::ReplayMetrics& replay) {
  const SpanTotals spans = m.spans.value_or(SpanTotals{});
  const Counters& c = m.counters;
  const double ms = 1e-6;
  const double topo_ns = spans.per_cell(Layer::TopoBuild);
  const double sim_ns = spans.ns[static_cast<int>(Layer::Advance)] +
                        spans.ns[static_cast<int>(Layer::Finish)];
  const std::uint64_t guarded = c.guard_skips + c.programs;
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  return {
      {"topo.build_ms", topo_ns * ms, "ms"},
      {"scenario.build_ms", (spans.per_cell(Layer::ScenarioBuild) - topo_ns) * ms, "ms"},
      {"scenario.advance_ms", spans.per_cell(Layer::Advance) * ms, "ms"},
      {"scenario.finish_ms", spans.per_cell(Layer::Finish) * ms, "ms"},
      {"scenario.serialize_us", spans.per_cell(Layer::Serialize) * 1e-3, "us"},
      {"sim.events", count(c.events), "count"},
      {"sim.ns_per_event", spans.events > 0 ? sim_ns / count(spans.events) : 0.0, "ns"},
      {"dsl.compile_us", replay.dsl_compile_us, "us"},
      {"inject.interposed", count(c.interposed), "count"},
      {"inject.suppressed", count(c.suppressed), "count"},
      {"inject.programs", count(c.programs), "count"},
      {"inject.guard_skip_ratio", guarded > 0 ? count(c.guard_skips) / count(guarded) : 0.0,
       "ratio"},
      {"lang.eval_ns", replay.lang_eval_ns, "ns"},
      {"chan.codec_ops_saved", count(c.codec_ops_saved), "count"},
      {"ofp.packet_ins", count(c.packet_ins), "count"},
      {"ofp.packet_outs", count(c.packet_outs), "count"},
      {"ofp.flow_mods", count(c.flow_mods), "count"},
      {"ofp.encode_ns", replay.ofp_encode_ns, "ns"},
      {"ofp.decode_ns", replay.ofp_decode_ns, "ns"},
      {"ofp.stamp_ns", replay.ofp_stamp_ns, "ns"},
      {"packet.stamp_ns", replay.packet_stamp_ns, "ns"},
      {"swsim.table_misses", count(c.table_misses), "count"},
      {"swsim.flow_mods_rejected", count(c.flow_mods_rejected), "count"},
      {"swsim.entries_peak", count(c.entries_peak), "count"},
      {"swsim.match_hit_ns", replay.match_hit_ns, "ns"},
      {"swsim.match_miss_ns", replay.match_miss_ns, "ns"},
      {"dpl.data_packets", count(c.data_packets), "count"},
      {"mem.slab_reserved_mb", m.slab_reserved_mb, "MiB"},
      {"sweep.dispatch_ms_per_cell",
       m.dispatch_ms_per_cell.empty() ? 0.0 : e2e::median(m.dispatch_ms_per_cell), "ms"},
      {"snap.warm_cells", count(m.warm_cells), "count"},
      {"sweep.journal_records", count(m.journal_records), "count"},
      {"sweep.respawns", count(m.respawns), "count"},
  };
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void print_result(const Measured& m, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += m.tally.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.tally.attempted);
  json += ", \"failed\": " + std::to_string(m.tally.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload fig11|flood|campaign --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR]\n");
    return 2;
  }
  const Args& args = *parsed;
  // Cells log expected warnings (a flooded controller's switches drop to
  // standalone mode); writing them would time the terminal, not the cells.
  Logger::instance().set_level(LogLevel::Error);
  const std::string name = e2e::to_string(args.workload);
  Measured m;
  try {
    std::filesystem::create_directories(args.scratch);
    if (args.workload == Workload::Campaign) {
      run_campaign(args, m);
    } else {
      run_in_process(args, m);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench %s: %s\n", name.c_str(), e.what());
    return 1;
  }

  std::printf("workload %s seed %llu: %zu timed cells in %.2f s\n", name.c_str(),
              static_cast<unsigned long long>(args.seed), m.timed_cells, m.timed_wall_s);
  std::printf("fingerprint %s: grid %s results %s sim.events %llu\n", name.c_str(),
              hex(m.grid_digest).c_str(), hex(m.results_digest).c_str(),
              static_cast<unsigned long long>(m.counters.events));
  std::printf("setup_s samples:");
  for (const double s : m.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (const auto p50 = e2e::percentile(m.cell_ms, 50.0)) {
    std::printf("cell_ms_p50 %.3f over %zu cells\n", p50->value, p50->samples);
  }
  for (const std::string& reason : m.tally.reasons) {
    std::printf("failed cell: %s\n", reason.c_str());
  }

  try {
    if (!args.trace) {
      print_result(m, end_to_end_metrics(m));
      return 0;
    }
    if (m.spans) {
      std::printf("span coverage of traced cell wall time: %.2f%% over %zu cells\n",
                  m.spans->coverage() * 100.0, m.spans->cells);
    }
    if (args.workload == Workload::Campaign) {
      std::printf("tracing overhead: none on timed cells (campaign cells run untraced in "
                  "workers; spans come from a separate in-process pass)\n");
    } else {
      std::printf("tracing overhead: untraced %.4f cells/s, traced %.4f cells/s (%+.2f%%)\n",
                  m.untraced_cells_per_s, m.traced_cells_per_s,
                  (m.untraced_cells_per_s / m.traced_cells_per_s - 1.0) * 100.0);
    }
    print_result(m, per_layer_metrics(m, e2e::run_replays(m.match_entries)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench %s: %s\n", name.c_str(), e.what());
    return 1;
  }
  return 0;
}
