// The redesigned scenario API: every experiment cell is a RunSpec (a pure
// value describing one deterministic simulation) and produces a RunResult
// (a polymorphic record that lists its fields once, through a FieldCodec,
// and renders itself as a table row). The paper's two case studies — flow-mod
// suppression (§VII-B, Fig. 11) and connection interruption (§VII-C,
// Table II) — are the built-in experiments; RunSpec::custom opens the same
// machinery to arbitrary user scenarios. The sweep engine (src/sweep/)
// executes grids of RunSpecs in parallel; run() is the single-cell entry
// point it fans out over.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/json.hpp"
#include "common/types.hpp"
#include "ctl/factory.hpp"
#include "topo/generators.hpp"

namespace attain::dpl {
struct PingReport;
}  // namespace attain::dpl

namespace attain::scenario {

using ctl::ControllerKind;
using ctl::all_controller_kinds;
using ctl::controller_kind_from_name;
using ctl::make_controller;
using ctl::to_string;

enum class ExperimentKind {
  FlowModSuppression,    // §VII-B / Fig. 11
  ConnectionInterruption,  // §VII-C / Table II
  Volumetric,            // DDoS workload class (ROADMAP: flooding / slow-rate)
  Custom,                // user-supplied runner in RunSpec::custom
};

std::string to_string(ExperimentKind kind);

/// The volumetric (DDoS) workload shapes. All three inject spoofed
/// data-plane traffic at every host-bearing edge switch with per-switch
/// event batching (one scheduler event per switch per batch interval), so
/// event counts stay affordable on enterprise-scale fabrics.
enum class VolumetricKind {
  PacketInFlood,   // every packet a fresh flow: table miss -> PACKET_IN storm
  TableOverflow,   // fresh flows against a capped flow table: TABLE_FULL errors
  SlowRate,        // a small flow set re-sent each batch, pinning table entries
};

std::string to_string(VolumetricKind kind);

/// Cross-cutting run options. Carried by value on RunSpec and RunResult and
/// round-tripped through to_json / save_result.
struct Options {
  /// Fail mode of the topology's chokepoint switch (s2 for the enterprise
  /// net — the Table II knob; the first core/spine for generated fabrics).
  bool fail_secure{false};
  /// Rule-evaluation engine: compiled flat programs (default) vs. the
  /// tree-walking interpreter.
  bool use_compiled{true};
  /// Emit the rule-engine counters in the result JSON's control_channel
  /// object (off by default: the sweep JSON stays byte-identical to
  /// earlier releases).
  bool extended_control_channel_json{false};

  friend bool operator==(const Options&, const Options&) = default;
};

class RunResult;
using RunResultPtr = std::unique_ptr<RunResult>;

/// One experiment cell: everything needed to reproduce one deterministic
/// simulation run. Specs are plain values — copyable, comparable by their
/// JSON form, and safe to ship across threads.
struct RunSpec {
  ExperimentKind experiment{ExperimentKind::FlowModSuppression};
  ControllerKind controller{ControllerKind::Pox};
  bool attack_enabled{true};

  /// The network under test. Defaults to the enterprise net, keeping
  /// pre-topology specs' ids and JSON byte-identical. Suppression and
  /// interruption run their §VII scripts on the enterprise net only;
  /// volumetric cells accept any topology.
  topo::TopologySpec topology{};

  /// Cross-cutting knobs (fail mode, rule engine, JSON extras). For
  /// interruption cells options.fail_secure is the Table II
  /// "s2 fail-secure" axis.
  Options options{};

  /// When the injector arms (virtual time). Negative means the
  /// experiment's §VII script default: 5 s for suppression, 10 s for
  /// interruption. Explicit values model injection campaigns ("same
  /// baseline, different attack timing") — see fig11_campaign_grid().
  SimTime attack_start{-1};

  /// Flow-mod suppression workload shape (§VII-B parameters).
  unsigned ping_trials{60};
  unsigned iperf_trials{5};
  SimTime iperf_duration{3 * kSecond};
  SimTime iperf_gap{2 * kSecond};

  /// Volumetric workload shape: which attack, how many distinct flows per
  /// edge switch, for how long, and the per-switch batching interval.
  VolumetricKind volumetric{VolumetricKind::PacketInFlood};
  std::uint32_t flood_flows{256};
  SimTime flood_duration{10 * kSecond};
  SimTime flood_batch{100 * kMillisecond};
  /// Per-switch flow-table cap (0 = unlimited); the TableOverflow target.
  std::uint32_t table_capacity{0};

  /// Explicit cell id; when empty, id() derives one from the fields.
  std::string name;

  /// ExperimentKind::Custom: the cell's runner. Must be thread-safe with
  /// respect to other cells (no shared mutable state).
  std::function<RunResultPtr(const RunSpec&)> custom;

  /// Stable cell identifier, e.g. "interruption/POX/fail-secure" or
  /// "suppression/Ryu/attack".
  std::string id() const;

  /// Field-order-stable JSON encoding of the spec (custom runners encode
  /// only their id).
  void write_json(JsonWriter& w) const;
  std::string to_json() const;
};

/// One pass over a result's experiment-specific fields, in one of three
/// formats: JSON members (JsonWriter), the save_result binary (ByteWriter),
/// or that binary read back (ByteReader, which assigns the fields). A
/// result lists its fields once, in RunResult::fields(); each overload
/// below is the whole format decision for its field type.
class FieldCodec {
 public:
  explicit FieldCodec(JsonWriter& json) : json_(&json) {}
  explicit FieldCodec(ByteWriter& out) : out_(&out) {}
  explicit FieldCodec(ByteReader& in) : in_(&in) {}

  void field(const char* name, std::uint64_t& v);
  void field(const char* name, bool& v);
  /// Binary: u32 length + bytes.
  void field(const char* name, std::string& v);
  /// JSON: the kind's name. Binary: one byte, range-checked on read.
  void field(const char* name, VolumetricKind& v);
  /// Binary: u32 count + IEEE-754 bit patterns.
  void field(const char* name, std::vector<double>& v);
  /// JSON: {sent, received, loss, mean_rtt_ms}. Binary: every trial.
  void field(const char* name, dpl::PingReport& v);
  /// A value computed from other fields: JSON only (null when absent).
  void derived(const char* name, std::optional<double> v);

 private:
  JsonWriter* json_{nullptr};
  ByteWriter* out_{nullptr};
  ByteReader* in_{nullptr};
};

/// One table row as (column header, cell) pairs. The headers are identical
/// for all results of one kind, so a grid renders as one monitor::TextTable.
using TableRow = std::vector<std::pair<std::string, std::string>>;

/// Base of the result hierarchy. Concrete results (SuppressionResult,
/// InterruptionResult, VolumetricResult in scenario/experiment.hpp, or user
/// types for custom cells) add their experiment's metrics, list them in
/// fields() and render them in row().
class RunResult {
 public:
  RunResult() = default;
  virtual ~RunResult() = default;

  ControllerKind controller{ControllerKind::Pox};
  bool attack_enabled{false};

  /// The spec's options, echoed into the result so JSON rendering and the
  /// binary round-trip are self-contained (no process-global state needed).
  Options options{};

  /// Virtual time the cell simulated (scheduler clock at teardown) and the
  /// number of events the scheduler executed — both deterministic.
  SimTime virtual_time{0};
  std::uint64_t events_executed{0};

  /// Control-channel accounting: injector stats plus chan::Channel counters
  /// summed across the testbed's connections (all deterministic).
  std::uint64_t messages_interposed{0};
  std::uint64_t messages_suppressed{0};
  std::uint64_t codec_ops_saved{0};

  /// Rule-engine accounting (AttackExecutor stats; zero when no attack was
  /// armed). Deterministic, but emitted in JSON only when
  /// options.extended_control_channel_json — the default JSON stays
  /// byte-identical across releases (the sweep determinism contract).
  std::uint64_t rules_skipped_by_guard{0};
  std::uint64_t programs_executed{0};

  /// Short experiment tag ("suppression", "interruption", ...).
  virtual std::string kind_name() const = 0;
  /// This result as one table row.
  virtual TableRow row() const = 0;
  /// Deep copy through the base pointer.
  virtual RunResultPtr clone() const = 0;
  /// Lists the experiment-specific fields, in document order. Non-const
  /// because a reading codec assigns through it; writing codecs only read.
  virtual void fields(FieldCodec& codec) = 0;

  /// Emits one JSON object: common fields first, then fields(), then the
  /// control_channel object. Field order is fixed — the sweep determinism
  /// tests compare these bytes.
  void write_json(JsonWriter& w) const;
  std::string to_json() const;
};

/// Runs one cell to completion on the calling thread. Dispatches on
/// spec.experiment; throws std::invalid_argument for a Custom spec without
/// a runner. This is the function the sweep engine parallelizes over.
RunResultPtr run(const RunSpec& spec);

// ---------------------------------------------------------------------------
// Grid construction. GridBuilder composes the axes (topology x controller x
// attack x fail mode x attack start x volumetric shape); the named
// functions below are thin wrappers preserving the paper grids' exact cell
// order and bytes.
// ---------------------------------------------------------------------------

/// Fluent builder for sweep grids. Unset axes take the experiment's
/// defaults, so e.g. GridBuilder().experiment(interruption).build() is
/// exactly table2_grid(). Cell order is row-major over
/// topologies (outer) x controllers x the experiment's inner axes — the
/// historical grid orders fall out as the single-topology case.
class GridBuilder {
 public:
  GridBuilder& experiment(ExperimentKind kind);
  /// Adds one volumetric shape (implies ExperimentKind::Volumetric).
  GridBuilder& volumetric(VolumetricKind kind);
  GridBuilder& controllers(std::vector<ControllerKind> kinds);
  /// Adds one topology to the axis (default: enterprise only).
  GridBuilder& topology(topo::TopologySpec spec);
  /// Attack on/off axis (default per experiment: suppression and
  /// volumetric {baseline, attack}; interruption {attack}).
  GridBuilder& attack_modes(std::vector<bool> modes);
  /// Chokepoint fail-mode axis (default: interruption {safe, secure};
  /// others {safe}).
  GridBuilder& fail_modes(std::vector<bool> modes);
  /// Campaign axis: one attack cell per start (plus a baseline when the
  /// attack axis includes false). Empty = the experiment's default start.
  GridBuilder& attack_starts(std::vector<SimTime> starts);
  /// Suppression workload shape.
  GridBuilder& workload(unsigned ping_trials, unsigned iperf_trials, SimTime iperf_duration,
                        SimTime iperf_gap);
  /// Volumetric workload shape.
  GridBuilder& flood(std::uint32_t flows, SimTime duration, SimTime batch);
  GridBuilder& table_capacity(std::uint32_t capacity);
  /// Base options applied to every cell (fail_modes overrides fail_secure).
  GridBuilder& options(Options base);

  std::vector<RunSpec> build() const;

 private:
  ExperimentKind experiment_{ExperimentKind::FlowModSuppression};
  std::vector<VolumetricKind> volumetrics_;
  std::vector<ControllerKind> controllers_;
  std::vector<topo::TopologySpec> topologies_;
  std::vector<bool> attack_modes_;
  std::vector<bool> fail_modes_;
  std::vector<SimTime> attack_starts_;
  unsigned ping_trials_{60};
  unsigned iperf_trials_{5};
  SimTime iperf_duration_{3 * kSecond};
  SimTime iperf_gap_{2 * kSecond};
  std::uint32_t flood_flows_{256};
  SimTime flood_duration_{10 * kSecond};
  SimTime flood_batch_{100 * kMillisecond};
  std::uint32_t table_capacity_{0};
  Options options_{};
};

/// Table II grid: {Floodlight, POX, Ryu} × {fail-safe, fail-secure}.
std::vector<RunSpec> table2_grid();

/// Fig. 11 grid: {Floodlight, POX, Ryu} × {baseline, attack} with the given
/// workload shape (defaults are the quick-bench parameters).
std::vector<RunSpec> fig11_grid(unsigned ping_trials = 20, unsigned iperf_trials = 5,
                                SimTime iperf_duration = 3 * kSecond,
                                SimTime iperf_gap = 2 * kSecond);

/// Injection-campaign grid: for each controller, one baseline plus one
/// attack cell per entry of `attack_starts` (empty means the default
/// {5 s, 35 s, 45 s} sweep over attack timing). All cells of one
/// controller share a single warm-up signature, so warm-start sweeps run
/// the workload prefix once per controller instead of once per cell.
std::vector<RunSpec> fig11_campaign_grid(std::vector<SimTime> attack_starts = {},
                                         unsigned ping_trials = 20, unsigned iperf_trials = 5,
                                         SimTime iperf_duration = 3 * kSecond,
                                         SimTime iperf_gap = 2 * kSecond);

// ---------------------------------------------------------------------------
// Warm-start support: the phased run contract the snapshot/fork layer
// (src/snap/) and the sweep engine's warm-start mode build on. run() is
// implemented as exactly warm_up + advance_to + finish, so a forked (warm)
// cell and a cold cell execute the same instruction sequence — byte-equal
// results are guaranteed structurally, not incidentally. See
// docs/sweep.md's warm-start section.
// ---------------------------------------------------------------------------

/// The arm time `spec` resolves to: attack_start when >= 0, otherwise the
/// experiment's script default (5 s suppression and volumetric, 10 s
/// interruption).
SimTime resolved_attack_start(const RunSpec& spec);

/// Volumetric cells connect their switches at kVolumetricConnectTime. Until
/// the controller has set a switch up, the switch forwards in standalone
/// mode, and a flood from that window is learned and flooded around the
/// fabric's loops instead of reaching the controller. A volumetric flood
/// therefore starts no earlier than kVolumetricSettle after the connect.
inline constexpr SimTime kVolumetricConnectTime = 1 * kSecond;
inline constexpr SimTime kVolumetricSettle = 2 * kSecond;
inline constexpr SimTime kEarliestVolumetricStart = kVolumetricConnectTime + kVolumetricSettle;

/// Throws std::invalid_argument when `spec` is a volumetric attack cell
/// whose flood would start before kEarliestVolumetricStart.
void check_attack_start(const RunSpec& spec);

/// Warm-up signature: cells with equal signatures share a byte-identical
/// pre-fork trajectory and can run from one shared warm-up. The signature
/// covers topology + controller + traffic shape and excludes everything
/// applied at fork time (suppression: attack arming and timing;
/// interruption: the s2 fail mode). Custom cells return nullopt and are
/// never grouped.
std::optional<std::string> warmup_signature(const RunSpec& spec);

/// The spec whose warm-up a signature group shares: `spec` with its
/// fork-applied parameters normalized away. Every cell of one signature
/// maps to the same representative.
RunSpec warmup_representative(const RunSpec& spec);

/// Virtual time at which `spec` diverges from its group's shared prefix:
/// the attack arm time for suppression and volumetric attack cells, the
/// workload end for their baselines (the whole run is shared), and t=55 s
/// for interruption cells (after σ2, before the fail-mode bit is first
/// read at the t=62 s connection loss). Throws for Custom specs.
SimTime fork_time(const RunSpec& spec);

/// A paused in-flight experiment: testbed built and workload scripted, but
/// advanced only part-way. advance_to() may be called repeatedly with
/// increasing deadlines (the group runner steps through its cells' fork
/// times in order); finish() applies one cell's fork-time parameters and
/// runs it to completion. After finish() the phase is spent.
class WarmupPhase {
 public:
  virtual ~WarmupPhase() = default;
  virtual void advance_to(SimTime deadline) = 0;
  virtual RunResultPtr finish(const RunSpec& cell) = 0;
};
using WarmupPhasePtr = std::unique_ptr<WarmupPhase>;

/// Builds and scripts the testbed for `representative` (as produced by
/// warmup_representative) without running it. Throws for Custom specs.
WarmupPhasePtr warm_up(const RunSpec& representative);

/// Binary round-trip for shipping results across the snapshot fork's
/// process boundary. Suppression, interruption, and volumetric results
/// only; custom result types throw std::invalid_argument.
void save_result(const RunResult& result, ByteWriter& w);
RunResultPtr load_result(ByteReader& r);

/// Stable content digest of a result: fnv1a64 over its save_result
/// encoding. The campaign journal (sweep/journal.*) stores it per record
/// so a resumed campaign can verify what it loaded. Throws like
/// save_result for custom result types.
std::uint64_t result_digest(const RunResult& result);

/// Stable digest of a whole grid (over the specs' JSON forms, in grid
/// order). A campaign journal is bound to this value: resuming against a
/// different grid is an error, not a silent partial re-run.
std::uint64_t grid_digest(const std::vector<RunSpec>& grid);

/// Renders homogeneous results as one aligned table via row(): the first
/// result's headers, then one row per result (null entries are skipped).
std::string render_results_table(const std::vector<const RunResult*>& results);

}  // namespace attain::scenario
