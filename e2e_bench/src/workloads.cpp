#include "workloads.hpp"

#include <set>
#include <stdexcept>

#include "stats.hpp"

namespace e2e {

using attain::SimTime;
using attain::scenario::ControllerKind;
using attain::scenario::ExperimentKind;
using attain::scenario::GridBuilder;
using attain::scenario::RunResult;
using attain::scenario::RunSpec;

namespace {

// Seed streams: each seeded axis draws independently of the others.
constexpr std::uint64_t kFig11Stream = 11;
constexpr std::uint64_t kFloodStream = 21;
constexpr std::uint64_t kCampaignFig11Stream = 31;
constexpr std::uint64_t kTable2Stream = 41;

const std::vector<ControllerKind> kControllers = {ControllerKind::Floodlight,
                                                  ControllerKind::Pox, ControllerKind::Ryu};

std::vector<RunSpec> suppression_grid(std::uint64_t seed, std::uint64_t stream) {
  std::vector<SimTime> starts = {pinned::kFig11PaperStart};
  for (const SimTime t : stratified_starts(seed, stream, pinned::kFig11StartLo,
                                           pinned::kFig11StartHi, pinned::kFig11SeededStarts)) {
    starts.push_back(t);
  }
  return GridBuilder()
      .experiment(ExperimentKind::FlowModSuppression)
      .controllers(kControllers)
      .topology(attain::topo::TopologySpec::enterprise())
      .attack_modes({false, true})
      .fail_modes({false})
      .attack_starts(std::move(starts))
      .workload(pinned::kPingTrials, pinned::kIperfTrials, pinned::kIperfDuration,
                pinned::kIperfGap)
      .options(pinned_options())
      .build();
}

std::vector<RunSpec> table2_grid(std::uint64_t seed) {
  std::vector<SimTime> starts = {pinned::kTable2PaperStart};
  for (const SimTime t : stratified_starts(seed, kTable2Stream, pinned::kTable2StartLo,
                                           pinned::kTable2StartHi, pinned::kTable2SeededStarts)) {
    starts.push_back(t);
  }
  return GridBuilder()
      .experiment(ExperimentKind::ConnectionInterruption)
      .controllers(kControllers)
      .topology(attain::topo::TopologySpec::enterprise())
      .attack_modes({true})
      .fail_modes({false, true})
      .attack_starts(std::move(starts))
      .options(pinned_options())
      .build();
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "fig11") return Workload::Fig11;
  if (name == "flood") return Workload::Flood;
  if (name == "campaign") return Workload::Campaign;
  return std::nullopt;
}

std::string to_string(Workload workload) {
  switch (workload) {
    case Workload::Fig11:
      return "fig11";
    case Workload::Flood:
      return "flood";
    case Workload::Campaign:
      return "campaign";
  }
  return "?";
}

attain::scenario::Options pinned_options() {
  attain::scenario::Options options;
  options.fail_secure = false;
  options.use_compiled = true;
  options.extended_control_channel_json = false;
  return options;
}

attain::topo::TopologySpec flood_topology() {
  return attain::topo::TopologySpec::leaf_spine(pinned::kFloodSpines, pinned::kFloodLeaves,
                                                pinned::kFloodHostsPerLeaf);
}

void require_loop_free(const attain::topo::TopologySpec& topology) {
  topology.check();
  // A connected switch graph is a tree iff it has one link fewer than
  // switches; every extra switch-to-switch link closes a loop.
  const std::size_t switch_links = topology.link_count() - topology.host_count();
  if (topology.is_enterprise() || switch_links + 1 != topology.switch_count()) {
    throw std::invalid_argument("flood workload needs a loop-free generated fabric; " +
                                topology.id() + " has multiple paths");
  }
}

std::vector<RunSpec> fig11_grid(std::uint64_t seed) {
  return suppression_grid(seed, kFig11Stream);
}

std::vector<RunSpec> flood_grid(std::uint64_t seed) {
  const attain::topo::TopologySpec topology = flood_topology();
  require_loop_free(topology);
  return GridBuilder()
      .experiment(ExperimentKind::Volumetric)
      .volumetric(attain::scenario::VolumetricKind::PacketInFlood)
      .controllers({ControllerKind::Pox})
      .topology(topology)
      .attack_modes({false, true})
      .fail_modes({false})
      .attack_starts(stratified_starts(seed, kFloodStream, pinned::kFloodStartLo,
                                       pinned::kFloodStartHi, pinned::kFloodSeededStarts))
      .flood(pinned::kFloodFlows, pinned::kFloodDuration, pinned::kFloodBatch)
      .table_capacity(pinned::kFloodTableCapacity)
      .options(pinned_options())
      .build();
}

std::vector<RunSpec> campaign_grid(std::uint64_t seed) {
  std::vector<RunSpec> grid = suppression_grid(seed, kCampaignFig11Stream);
  for (RunSpec& spec : table2_grid(seed)) grid.push_back(std::move(spec));
  return grid;
}

std::vector<RunSpec> make_grid(Workload workload, std::uint64_t seed) {
  switch (workload) {
    case Workload::Fig11:
      return fig11_grid(seed);
    case Workload::Flood:
      return flood_grid(seed);
    case Workload::Campaign:
      return campaign_grid(seed);
  }
  throw std::invalid_argument("make_grid: unknown workload");
}

std::size_t edge_switch_count(const attain::topo::SystemModel& model) {
  std::set<std::uint32_t> edges;
  for (const attain::topo::HostSpec& h : model.hosts()) {
    edges.insert(model.attachment_of(model.require(h.name)).first.index);
  }
  return edges.size();
}

std::vector<long> baseline_index(const std::vector<RunSpec>& grid) {
  std::vector<long> index(grid.size(), -1);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (grid[i].experiment != ExperimentKind::FlowModSuppression) continue;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      if (grid[j].experiment == ExperimentKind::FlowModSuppression && !grid[j].attack_enabled &&
          grid[j].controller == grid[i].controller) {
        index[i] = static_cast<long>(j);
        break;
      }
    }
  }
  return index;
}

namespace {

std::string check_suppression(const RunSpec& spec, const RunResult& result,
                              const RunResult* baseline) {
  if (!spec.attack_enabled || spec.attack_start != pinned::kFig11PaperStart) return "";
  const auto& r = dynamic_cast<const attain::scenario::SuppressionResult&>(result);
  const std::optional<double> mbps = r.mean_throughput_mbps();
  if (spec.controller == ControllerKind::Pox) {
    return mbps ? "POX t5 cell still moves data" : "";
  }
  const auto* base = dynamic_cast<const attain::scenario::SuppressionResult*>(baseline);
  if (base == nullptr || !base->mean_throughput_mbps()) return "t5 cell has no working baseline";
  if (!mbps || *mbps <= 0.0) return "t5 cell lost all throughput";
  if (*mbps >= *base->mean_throughput_mbps()) return "t5 cell not below its baseline";
  return "";
}

std::string check_interruption(const RunSpec& spec, const RunResult& result) {
  const auto& r = dynamic_cast<const attain::scenario::InterruptionResult&>(result);
  const bool ryu = spec.controller == ControllerKind::Ryu;
  if (ryu && r.attack_reached_sigma3) return "Ryu reached sigma3";
  if (spec.attack_start != pinned::kTable2PaperStart) return "";
  // Table II: probes before the interruption always work; afterwards
  // fail-safe grants external->internal access and keeps internal->external
  // traffic, fail-secure denies both. Ryu's matches never trip phi2.
  const bool interrupted = !ryu;
  const bool secure = spec.options.fail_secure;
  const bool want_t50 = !(interrupted && secure);
  const bool want_t95 = !(interrupted && secure);
  if (!r.ext_to_ext_t30 || !r.int_to_ext_t30) return "Table II t30 probe failed";
  if (r.attack_reached_sigma3 != interrupted) return "Table II sigma3 mismatch";
  if (r.ext_to_int_t50 != want_t50) return "Table II t50 answer mismatch";
  if (r.int_to_ext_t95 != want_t95) return "Table II t95 answer mismatch";
  return "";
}

std::string check_volumetric(const RunSpec& spec, const RunResult& result,
                             std::size_t edge_switches) {
  const auto& r = dynamic_cast<const attain::scenario::VolumetricResult&>(result);
  if (!spec.attack_enabled) {
    if (r.probe.sent() == 0 || r.probe.received() != r.probe.sent()) {
      return "flood baseline lost probes";
    }
    return "";
  }
  const std::uint64_t want = static_cast<std::uint64_t>(spec.flood_flows) * edge_switches;
  if (r.flood_packets_injected != want) return "flood injected a different packet count";
  return "";
}

}  // namespace

std::string check_cell(const RunSpec& spec, const RunResult& result, const RunResult* baseline,
                       std::size_t edge_switches) {
  try {
    switch (spec.experiment) {
      case ExperimentKind::FlowModSuppression:
        return check_suppression(spec, result, baseline);
      case ExperimentKind::ConnectionInterruption:
        return check_interruption(spec, result);
      case ExperimentKind::Volumetric:
        return check_volumetric(spec, result, edge_switches);
      case ExperimentKind::Custom:
        break;
    }
  } catch (const std::bad_cast&) {
    return "result type does not match the experiment";
  }
  return "custom cells are not part of the benchmark";
}

}  // namespace e2e
