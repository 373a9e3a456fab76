// The experiment harness: assembles a full testbed (simulated hosts,
// switches, controller, injector proxy, monitors) from a system model, and
// runs the paper's two case-study experiments with their §VII timing
// scripts. Cells are described by scenario::RunSpec (scenario/run.hpp) and
// executed — serially or in parallel by sweep::SweepRunner — through
// scenario::run(), which returns the result types declared below.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attain/dsl/compiler.hpp"
#include "attain/inject/proxy.hpp"
#include "attain/monitor/metrics.hpp"
#include "attain/monitor/monitor.hpp"
#include "chan/channel.hpp"
#include "ctl/controller.hpp"
#include "dpl/host.hpp"
#include "dpl/iperf.hpp"
#include "dpl/ping.hpp"
#include "scenario/enterprise.hpp"
#include "scenario/run.hpp"
#include "sim/link.hpp"
#include "sim/scheduler.hpp"
#include "swsim/switch.hpp"

namespace attain::scenario {

struct TestbedOptions {
  ControllerKind controller{ControllerKind::Pox};
  /// Data-plane links: the paper's 100 Mbps GENI links.
  sim::PipeConfig data_link{100'000'000, 200 * kMicrosecond, 512};
  /// Control-plane network (a dedicated switch in the paper's deployment);
  /// two segments per connection (switch↔proxy, proxy↔controller).
  sim::PipeConfig control_link{1'000'000'000, 150 * kMicrosecond, 0};
  /// Override the controller's per-message processing delay; negative
  /// keeps the controller implementation's default.
  SimTime controller_processing{-1};
  /// Record only counters in the monitor (full event logs get large under
  /// the iperf workloads).
  bool monitor_counters_only{true};
  /// Rule-evaluation engine for the injector (scenario::Options::use_compiled).
  bool use_compiled{true};
  /// Per-switch flow-table entry cap (0 = unlimited); the table-overflow
  /// attack's target surface.
  std::uint32_t table_capacity{0};
};

/// A fully wired simulated deployment of one system model. All components
/// share one Scheduler; every control-plane connection runs through one
/// RuntimeInjector instance (the paper's centralized, totally-ordered
/// proxy). A Testbed is single-threaded by construction — concurrent
/// Testbeds (the sweep engine) must each live on their own thread.
class Testbed {
 public:
  Testbed(topo::SystemModel model, TestbedOptions options = {});

  sim::Scheduler& scheduler() { return sched_; }
  const topo::SystemModel& model() const { return model_; }
  dpl::Host& host(const std::string& name);
  swsim::OpenFlowSwitch& switch_named(const std::string& name);
  ctl::Controller& controller() { return *controller_; }
  inject::RuntimeInjector& injector() { return *injector_; }
  monitor::Monitor& monitor() { return monitor_; }

  /// The control channels, in control_connections() order.
  const std::vector<std::unique_ptr<chan::Channel>>& channels() const { return channels_; }
  /// Counters summed across every channel and both directions.
  chan::DirectionCounters channel_totals() const;

  /// Schedules every switch's OpenFlow connect() at `when`.
  void connect_switches_at(SimTime when);

  /// Compiles the DSL source (attacker + attack blocks) against this
  /// testbed's system model. Throws on parse/compile errors.
  dsl::CompiledAttack compile_attack(const std::string& dsl_source);

  /// The single arming path: compiles `attack` (with full capability
  /// checking) and schedules arming it at `when`. The compiled attack and
  /// its capability map are kept alive by the testbed.
  void arm_attack_at(SimTime when, const lang::Attack& attack,
                     const model::CapabilityMap& capabilities);

  /// Thin DSL wrapper: parses `dsl_source` and delegates to the
  /// programmatic overload above.
  void arm_attack_at(SimTime when, const std::string& dsl_source);

  /// Runs the simulation to `deadline`.
  void run_until(SimTime deadline) { sched_.run_until(deadline); }

 private:
  void build();

  topo::SystemModel model_;
  TestbedOptions options_;
  sim::Scheduler sched_;
  monitor::Monitor monitor_;

  std::vector<std::unique_ptr<dpl::Host>> hosts_;
  std::vector<std::unique_ptr<swsim::OpenFlowSwitch>> switches_;
  std::unique_ptr<ctl::Controller> controller_;
  std::unique_ptr<inject::RuntimeInjector> injector_;

  // Data-plane pipes; owned here, looked up by (entity, port) for senders.
  std::vector<std::unique_ptr<sim::Pipe<pkt::Packet>>> data_pipes_;
  // Control-plane channels, one per control connection (pipes inside).
  std::vector<std::unique_ptr<chan::Channel>> channels_;

  // Armed attacks kept alive (executor holds references).
  struct ArmedAttack {
    dsl::CompiledAttack attack;
    model::CapabilityMap capabilities;
  };
  std::vector<std::unique_ptr<ArmedAttack>> armed_;
};

// ---------------------------------------------------------------------------
// Experiment 1 (§VII-B, Fig. 11): flow modification suppression.
// ---------------------------------------------------------------------------

class SuppressionResult : public RunResult {
 public:
  dpl::PingReport ping;
  std::vector<double> iperf_mbps;  // per trial

  // Control-plane accounting for the amplification analysis (E6).
  std::uint64_t packet_ins{0};
  std::uint64_t packet_outs{0};
  std::uint64_t flow_mods_observed{0};
  std::uint64_t flow_mods_suppressed{0};
  std::uint64_t data_packets_delivered{0};

  /// Mean throughput; std::nullopt when every trial moved zero bytes (the
  /// paper's "*", denial of service).
  std::optional<double> mean_throughput_mbps() const;
  /// Mean RTT in ms; std::nullopt when no ping was ever answered ("*").
  std::optional<double> mean_latency_ms() const;
  /// Control messages per delivered data packet (§VII-B's 2n + 2 bound).
  double control_amplification() const;

  std::string kind_name() const override { return "suppression"; }
  TableRow row() const override;
  RunResultPtr clone() const override { return std::make_unique<SuppressionResult>(*this); }
  void fields(FieldCodec& codec) override;
};

// ---------------------------------------------------------------------------
// Experiment 2 (§VII-C, Table II): connection interruption.
// ---------------------------------------------------------------------------

class InterruptionResult : public RunResult {
 public:
  bool s2_fail_secure{false};

  // Table II's four questions (✓ = true).
  bool ext_to_ext_t30{false};   // h2 -> h1
  bool int_to_ext_t30{false};   // h6 -> h1
  bool ext_to_int_t50{false};   // h2 -> h3 (true = unauthorized access post-interruption)
  bool int_to_ext_t95{false};   // h6 -> h1 (false = denial of service)

  bool attack_reached_sigma3{false};  // Ryu: stays false (φ2 never fires)

  std::string kind_name() const override { return "interruption"; }
  TableRow row() const override;
  RunResultPtr clone() const override { return std::make_unique<InterruptionResult>(*this); }
  void fields(FieldCodec& codec) override;
};

// ---------------------------------------------------------------------------
// Experiment 3: volumetric control-plane workloads (PACKET_IN flood, flow-
// table overflow, slow-rate starvation) on any generated topology.
// ---------------------------------------------------------------------------

class VolumetricResult : public RunResult {
 public:
  VolumetricKind volumetric{VolumetricKind::PacketInFlood};
  std::string topology_id;

  /// Attack-side accounting: spoofed frames injected at the edge, and the
  /// control-plane storm they provoked.
  std::uint64_t flood_packets_injected{0};
  std::uint64_t packet_ins{0};
  std::uint64_t packet_outs{0};
  std::uint64_t flow_mods_observed{0};
  /// FLOW_MOD ADDs refused by capped tables (summed over every switch);
  /// nonzero is the table-overflow attack's success observable.
  std::uint64_t flow_mods_rejected{0};
  std::uint64_t table_misses{0};
  std::uint64_t miss_drops{0};
  /// Flow-table occupancy summed over every switch: at the end of the run,
  /// and the peak seen by the 1 s occupancy sampler.
  std::uint64_t table_entries_final{0};
  std::uint64_t table_entries_peak{0};

  /// Victim-side observable: a background ping crossing the fabric for the
  /// whole flood window.
  dpl::PingReport probe;

  /// Probe mean RTT in ms; std::nullopt when no echo ever returned ("*").
  std::optional<double> probe_mean_rtt_ms() const;

  std::string kind_name() const override { return "volumetric"; }
  TableRow row() const override;
  RunResultPtr clone() const override { return std::make_unique<VolumetricResult>(*this); }
  void fields(FieldCodec& codec) override;
};

/// Renders Table II (the paper's transposed layout: questions as rows,
/// controller × fail-mode as columns) from the six runs.
std::string render_table2(const std::vector<InterruptionResult>& results);
/// Same, over sweep-produced results (non-interruption entries ignored).
std::string render_table2(const std::vector<const RunResult*>& results);

}  // namespace attain::scenario
