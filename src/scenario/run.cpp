#include "scenario/run.hpp"

#include <algorithm>
#include <bit>

#include "attain/monitor/metrics.hpp"
#include "dpl/ping.hpp"

namespace attain::scenario {

std::string to_string(ExperimentKind kind) {
  switch (kind) {
    case ExperimentKind::FlowModSuppression: return "suppression";
    case ExperimentKind::ConnectionInterruption: return "interruption";
    case ExperimentKind::Volumetric: return "volumetric";
    case ExperimentKind::Custom: return "custom";
  }
  return "?";
}

std::string to_string(VolumetricKind kind) {
  switch (kind) {
    case VolumetricKind::PacketInFlood: return "packet-in-flood";
    case VolumetricKind::TableOverflow: return "table-overflow";
    case VolumetricKind::SlowRate: return "slow-rate";
  }
  return "?";
}

namespace {

/// "/t35" for whole seconds, "/t3500000us" otherwise — appended to ids of
/// cells with an explicit attack start so campaign cells stay distinct.
std::string attack_start_suffix(SimTime start) {
  if (start % kSecond == 0) return "/t" + std::to_string(start / kSecond);
  return "/t" + std::to_string(start) + "us";
}

// Element counts are checked before use, like the enum bytes FieldCodec
// reads: a corrupt record (a journal is a trust boundary) must throw
// DecodeError, not reserve gigabytes or load a value to_json() cannot render.
std::uint32_t load_count(ByteReader& r, std::size_t min_element_bytes) {
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / min_element_bytes) {
    throw DecodeError("load_result: element count " + std::to_string(count) +
                      " exceeds the record");
  }
  return count;
}

}  // namespace

std::string RunSpec::id() const {
  if (!name.empty()) return name;
  std::string id = to_string(experiment);
  if (experiment == ExperimentKind::Volumetric) {
    id += '/' + to_string(volumetric) + '/' + topology.id();
  } else if (!topology.is_enterprise()) {
    id += '/' + topology.id();
  }
  id += '/';
  id += to_string(controller);
  switch (experiment) {
    case ExperimentKind::FlowModSuppression:
      id += attack_enabled ? "/attack" : "/baseline";
      break;
    case ExperimentKind::ConnectionInterruption:
      id += options.fail_secure ? "/fail-secure" : "/fail-safe";
      if (!attack_enabled) id += "/baseline";
      break;
    case ExperimentKind::Volumetric:
      if (!attack_enabled) id += "/baseline";
      break;
    case ExperimentKind::Custom:
      break;
  }
  if (attack_enabled && attack_start >= 0) id += attack_start_suffix(attack_start);
  return id;
}

void RunSpec::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("id", id());
  w.field("experiment", to_string(experiment));
  w.field("controller", to_string(controller));
  w.field("attack", attack_enabled);
  switch (experiment) {
    case ExperimentKind::FlowModSuppression:
      w.field("ping_trials", static_cast<std::uint64_t>(ping_trials));
      w.field("iperf_trials", static_cast<std::uint64_t>(iperf_trials));
      w.field("iperf_duration_us", static_cast<std::int64_t>(iperf_duration));
      w.field("iperf_gap_us", static_cast<std::int64_t>(iperf_gap));
      break;
    case ExperimentKind::ConnectionInterruption:
      w.field("s2_fail_secure", options.fail_secure);
      break;
    case ExperimentKind::Volumetric:
      w.field("volumetric", to_string(volumetric));
      w.field("fail_secure", options.fail_secure);
      w.field("flood_flows", static_cast<std::uint64_t>(flood_flows));
      w.field("flood_duration_us", static_cast<std::int64_t>(flood_duration));
      w.field("flood_batch_us", static_cast<std::int64_t>(flood_batch));
      w.field("table_capacity", static_cast<std::uint64_t>(table_capacity));
      break;
    case ExperimentKind::Custom:
      break;
  }
  // The default topology and default options are left implicit, keeping the
  // historical grids' JSON byte-identical to earlier releases (the sweep
  // determinism contract). Non-default values round-trip explicitly.
  if (!topology.is_enterprise()) {
    w.key("topology");
    topology.write_json(w);
  }
  if (options.use_compiled != Options{}.use_compiled ||
      options.extended_control_channel_json != Options{}.extended_control_channel_json) {
    w.key("options").begin_object();
    w.field("use_compiled", options.use_compiled);
    w.field("extended_control_channel_json", options.extended_control_channel_json);
    w.end_object();
  }
  // Only explicit starts are encoded, for the same reason.
  if (attack_start >= 0) w.field("attack_start_us", static_cast<std::int64_t>(attack_start));
  w.end_object();
}

std::string RunSpec::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

void RunResult::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("experiment", kind_name());
  w.field("controller", to_string(controller));
  w.field("attack", attack_enabled);
  w.field("virtual_time_us", static_cast<std::int64_t>(virtual_time));
  w.field("events_executed", events_executed);
  FieldCodec codec(w);
  // A writing codec only reads the fields.
  const_cast<RunResult*>(this)->fields(codec);
  w.key("control_channel").begin_object();
  w.field("messages_interposed", messages_interposed);
  w.field("messages_suppressed", messages_suppressed);
  w.field("codec_ops_saved", codec_ops_saved);
  if (options.extended_control_channel_json) {
    w.field("rules_skipped_by_guard", rules_skipped_by_guard);
    w.field("programs_executed", programs_executed);
  }
  w.end_object();
  w.end_object();
}

std::string RunResult::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

void FieldCodec::field(const char* name, std::uint64_t& v) {
  if (json_ != nullptr) {
    json_->field(name, v);
  } else if (out_ != nullptr) {
    out_->u64(v);
  } else {
    v = in_->u64();
  }
}

void FieldCodec::field(const char* name, bool& v) {
  if (json_ != nullptr) {
    json_->field(name, v);
  } else if (out_ != nullptr) {
    out_->u8(v ? 1 : 0);
  } else {
    v = in_->u8() != 0;
  }
}

void FieldCodec::field(const char* name, std::string& v) {
  if (json_ != nullptr) {
    json_->field(name, v);
  } else if (out_ != nullptr) {
    out_->u32(static_cast<std::uint32_t>(v.size()));
    out_->raw({reinterpret_cast<const std::uint8_t*>(v.data()), v.size()});
  } else {
    const auto bytes = in_->view(load_count(*in_, 1));
    v.assign(bytes.begin(), bytes.end());
  }
}

void FieldCodec::field(const char* name, VolumetricKind& v) {
  if (json_ != nullptr) {
    json_->field(name, to_string(v));
  } else if (out_ != nullptr) {
    out_->u8(static_cast<std::uint8_t>(v));
  } else {
    const std::uint8_t byte = in_->u8();
    if (byte > static_cast<std::uint8_t>(VolumetricKind::SlowRate)) {
      throw DecodeError("load_result: unknown volumetric kind " + std::to_string(byte));
    }
    v = static_cast<VolumetricKind>(byte);
  }
}

void FieldCodec::field(const char* name, std::vector<double>& v) {
  if (json_ != nullptr) {
    json_->key(name).begin_array();
    for (const double x : v) json_->value(x);
    json_->end_array();
  } else if (out_ != nullptr) {
    out_->u32(static_cast<std::uint32_t>(v.size()));
    for (const double x : v) out_->u64(std::bit_cast<std::uint64_t>(x));
  } else {
    v.assign(load_count(*in_, sizeof(std::uint64_t)), 0.0);
    for (double& x : v) x = std::bit_cast<double>(in_->u64());
  }
}

void FieldCodec::field(const char* name, dpl::PingReport& v) {
  if (json_ != nullptr) {
    json_->key(name).begin_object();
    json_->field("sent", static_cast<std::uint64_t>(v.sent()));
    json_->field("received", static_cast<std::uint64_t>(v.received()));
    json_->field("loss", v.sent() > 0 ? v.loss_fraction() : 0.0);
    const std::optional<double> rtt = v.mean_rtt_seconds();
    json_->field_or_null("mean_rtt_ms", rtt ? std::optional<double>(*rtt * 1e3) : std::nullopt);
    json_->end_object();
  } else if (out_ != nullptr) {
    out_->u32(static_cast<std::uint32_t>(v.trials.size()));
    for (const dpl::PingTrial& trial : v.trials) {
      out_->u16(trial.seq);
      out_->u64(static_cast<std::uint64_t>(trial.sent_at));
      out_->u8(trial.rtt.has_value() ? 1 : 0);
      if (trial.rtt) out_->u64(static_cast<std::uint64_t>(*trial.rtt));
    }
  } else {
    v.trials.assign(load_count(*in_, /*u16 seq + u64 sent_at + u8 flag*/ 11), dpl::PingTrial{});
    for (dpl::PingTrial& trial : v.trials) {
      trial.seq = in_->u16();
      trial.sent_at = static_cast<SimTime>(in_->u64());
      if (in_->u8() != 0) trial.rtt = static_cast<SimTime>(in_->u64());
    }
  }
}

void FieldCodec::derived(const char* name, std::optional<double> v) {
  if (json_ != nullptr) json_->field_or_null(name, v);
}

GridBuilder& GridBuilder::experiment(ExperimentKind kind) {
  experiment_ = kind;
  return *this;
}

GridBuilder& GridBuilder::volumetric(VolumetricKind kind) {
  experiment_ = ExperimentKind::Volumetric;
  volumetrics_.push_back(kind);
  return *this;
}

GridBuilder& GridBuilder::controllers(std::vector<ControllerKind> kinds) {
  controllers_ = std::move(kinds);
  return *this;
}

GridBuilder& GridBuilder::topology(topo::TopologySpec spec) {
  spec.check();
  topologies_.push_back(std::move(spec));
  return *this;
}

GridBuilder& GridBuilder::attack_modes(std::vector<bool> modes) {
  attack_modes_ = std::move(modes);
  return *this;
}

GridBuilder& GridBuilder::fail_modes(std::vector<bool> modes) {
  fail_modes_ = std::move(modes);
  return *this;
}

GridBuilder& GridBuilder::attack_starts(std::vector<SimTime> starts) {
  attack_starts_ = std::move(starts);
  return *this;
}

GridBuilder& GridBuilder::workload(unsigned ping_trials, unsigned iperf_trials,
                                   SimTime iperf_duration, SimTime iperf_gap) {
  ping_trials_ = ping_trials;
  iperf_trials_ = iperf_trials;
  iperf_duration_ = iperf_duration;
  iperf_gap_ = iperf_gap;
  return *this;
}

GridBuilder& GridBuilder::flood(std::uint32_t flows, SimTime duration, SimTime batch) {
  flood_flows_ = flows;
  flood_duration_ = duration;
  flood_batch_ = batch;
  return *this;
}

GridBuilder& GridBuilder::table_capacity(std::uint32_t capacity) {
  table_capacity_ = capacity;
  return *this;
}

GridBuilder& GridBuilder::options(Options base) {
  options_ = base;
  return *this;
}

std::vector<RunSpec> GridBuilder::build() const {
  // Resolve per-experiment axis defaults.
  std::vector<ControllerKind> controllers = controllers_;
  if (controllers.empty()) controllers = all_controller_kinds();
  std::vector<topo::TopologySpec> topologies = topologies_;
  if (topologies.empty()) topologies = {topo::TopologySpec::enterprise()};
  std::vector<bool> attack_modes = attack_modes_;
  if (attack_modes.empty()) {
    attack_modes = experiment_ == ExperimentKind::ConnectionInterruption
                       ? std::vector<bool>{true}
                       : std::vector<bool>{false, true};
  }
  std::vector<bool> fail_modes = fail_modes_;
  if (fail_modes.empty()) {
    fail_modes = experiment_ == ExperimentKind::ConnectionInterruption
                     ? std::vector<bool>{false, true}
                     : std::vector<bool>{options_.fail_secure};
  }
  std::vector<VolumetricKind> volumetrics = volumetrics_;
  if (volumetrics.empty()) volumetrics = {VolumetricKind::PacketInFlood};

  auto base_cell = [&](const topo::TopologySpec& topology, ControllerKind controller) {
    RunSpec spec;
    spec.experiment = experiment_;
    spec.controller = controller;
    spec.topology = topology;
    spec.options = options_;
    spec.ping_trials = ping_trials_;
    spec.iperf_trials = iperf_trials_;
    spec.iperf_duration = iperf_duration_;
    spec.iperf_gap = iperf_gap_;
    spec.flood_flows = flood_flows_;
    spec.flood_duration = flood_duration_;
    spec.flood_batch = flood_batch_;
    spec.table_capacity = table_capacity_;
    return spec;
  };

  // The attack axis for one (topology, controller, ...) slot: either the
  // plain on/off modes, or the campaign expansion (baseline cell when the
  // axis includes "off", then one attack cell per start).
  auto emit_attack_axis = [&](std::vector<RunSpec>& grid, const RunSpec& base) {
    if (attack_starts_.empty()) {
      for (const bool attack : attack_modes) {
        RunSpec cell = base;
        cell.attack_enabled = attack;
        grid.push_back(std::move(cell));
      }
      return;
    }
    if (std::find(attack_modes.begin(), attack_modes.end(), false) != attack_modes.end()) {
      RunSpec baseline = base;
      baseline.attack_enabled = false;
      grid.push_back(std::move(baseline));
    }
    for (const SimTime start : attack_starts_) {
      RunSpec cell = base;
      cell.attack_enabled = true;
      cell.attack_start = start;
      grid.push_back(std::move(cell));
    }
  };

  std::vector<RunSpec> grid;
  for (const topo::TopologySpec& topology : topologies) {
    for (const ControllerKind controller : controllers) {
      switch (experiment_) {
        case ExperimentKind::ConnectionInterruption:
          for (const bool secure : fail_modes) {
            RunSpec base = base_cell(topology, controller);
            base.options.fail_secure = secure;
            emit_attack_axis(grid, base);
          }
          break;
        case ExperimentKind::Volumetric:
          for (const VolumetricKind vkind : volumetrics) {
            for (const bool secure : fail_modes) {
              RunSpec base = base_cell(topology, controller);
              base.volumetric = vkind;
              base.options.fail_secure = secure;
              emit_attack_axis(grid, base);
            }
          }
          break;
        case ExperimentKind::FlowModSuppression:
        case ExperimentKind::Custom:
          for (const bool secure : fail_modes) {
            RunSpec base = base_cell(topology, controller);
            base.options.fail_secure = secure;
            emit_attack_axis(grid, base);
          }
          break;
      }
    }
  }
  for (const RunSpec& cell : grid) check_attack_start(cell);
  return grid;
}

std::vector<RunSpec> table2_grid() {
  return GridBuilder().experiment(ExperimentKind::ConnectionInterruption).build();
}

std::vector<RunSpec> fig11_grid(unsigned ping_trials, unsigned iperf_trials,
                                SimTime iperf_duration, SimTime iperf_gap) {
  return GridBuilder()
      .experiment(ExperimentKind::FlowModSuppression)
      .workload(ping_trials, iperf_trials, iperf_duration, iperf_gap)
      .build();
}

std::vector<RunSpec> fig11_campaign_grid(std::vector<SimTime> attack_starts,
                                         unsigned ping_trials, unsigned iperf_trials,
                                         SimTime iperf_duration, SimTime iperf_gap) {
  if (attack_starts.empty()) {
    attack_starts = {seconds(5), seconds(35), seconds(45)};
  }
  return GridBuilder()
      .experiment(ExperimentKind::FlowModSuppression)
      .workload(ping_trials, iperf_trials, iperf_duration, iperf_gap)
      .attack_starts(std::move(attack_starts))
      .build();
}

// ---------------------------------------------------------------------------
// Warm-start support (spec-level pieces; warm_up, fork_time and the
// save/load round-trip live with the experiment implementations in
// scenario/experiment.cpp).
// ---------------------------------------------------------------------------

SimTime resolved_attack_start(const RunSpec& spec) {
  if (spec.attack_start >= 0) return spec.attack_start;
  return spec.experiment == ExperimentKind::ConnectionInterruption ? seconds(10) : seconds(5);
}

void check_attack_start(const RunSpec& spec) {
  if (spec.experiment != ExperimentKind::Volumetric || !spec.attack_enabled) return;
  const SimTime start = resolved_attack_start(spec);
  if (start < kEarliestVolumetricStart) {
    throw std::invalid_argument(spec.id() + ": a volumetric flood cannot start at " +
                                std::to_string(start / kMillisecond) +
                                " ms, before the switches have connected and settled (" +
                                std::to_string(kEarliestVolumetricStart / kMillisecond) +
                                " ms)");
  }
}

namespace {

/// Shared-prefix signature tokens for the axes every experiment carries:
/// the topology (enterprise implied for the historical signatures) and the
/// rule-evaluation engine (compiled implied; it changes the armed
/// executor's trajectory, so interpreter cells never share a prefix with
/// compiled ones).
std::string common_signature_suffix(const RunSpec& spec) {
  std::string sig;
  if (!spec.topology.is_enterprise()) sig += "/" + spec.topology.id();
  if (!spec.options.use_compiled) sig += "/interp";
  return sig;
}

}  // namespace

std::optional<std::string> warmup_signature(const RunSpec& spec) {
  switch (spec.experiment) {
    case ExperimentKind::FlowModSuppression: {
      // Excludes attack_enabled / attack_start / name: arming happens at
      // fork time, so any attack timing shares the workload prefix.
      std::string sig = "suppression/";
      sig += to_string(spec.controller);
      sig += "/p" + std::to_string(spec.ping_trials);
      sig += "/i" + std::to_string(spec.iperf_trials);
      sig += "/d" + std::to_string(spec.iperf_duration);
      sig += "/g" + std::to_string(spec.iperf_gap);
      return sig + common_signature_suffix(spec);
    }
    case ExperimentKind::ConnectionInterruption: {
      // The arm time is part of the prefix here (the injector observes the
      // connection setup), so it is in the signature; the s2 fail mode is
      // applied at the fork point and stays out.
      std::string sig = "interruption/";
      sig += to_string(spec.controller);
      sig += spec.attack_enabled ? "/attack" : "/baseline";
      sig += "/t" + std::to_string(resolved_attack_start(spec));
      return sig + common_signature_suffix(spec);
    }
    case ExperimentKind::Volumetric: {
      // The flood itself (shape, flow count, batching, timing) is applied
      // at fork time; the probe script depends only on flood_duration. The
      // table cap and chokepoint fail mode are build-time parameters.
      std::string sig = "volumetric/";
      sig += to_string(spec.controller);
      sig += "/d" + std::to_string(spec.flood_duration);
      sig += "/cap" + std::to_string(spec.table_capacity);
      if (spec.options.fail_secure) sig += "/secure";
      return sig + common_signature_suffix(spec);
    }
    case ExperimentKind::Custom:
      return std::nullopt;
  }
  return std::nullopt;
}

RunSpec warmup_representative(const RunSpec& spec) {
  RunSpec rep = spec;
  rep.name.clear();
  rep.custom = nullptr;
  switch (spec.experiment) {
    case ExperimentKind::FlowModSuppression:
      rep.attack_enabled = false;
      rep.attack_start = -1;
      break;
    case ExperimentKind::ConnectionInterruption:
      rep.options.fail_secure = false;
      break;
    case ExperimentKind::Volumetric:
      // Everything outside the signature normalizes to the defaults; the
      // flood is scheduled by finish(), so the representative is a pure
      // baseline.
      rep.attack_enabled = false;
      rep.attack_start = -1;
      rep.volumetric = VolumetricKind::PacketInFlood;
      rep.flood_flows = RunSpec{}.flood_flows;
      rep.flood_batch = RunSpec{}.flood_batch;
      break;
    case ExperimentKind::Custom:
      break;
  }
  return rep;
}

std::uint64_t grid_digest(const std::vector<RunSpec>& grid) {
  // Digest the concatenated spec documents with a separator the JSON can
  // never contain, so cell boundaries stay unambiguous.
  std::string doc;
  for (const RunSpec& spec : grid) {
    doc += spec.to_json();
    doc += '\n';
  }
  return fnv1a64(doc);
}

std::string render_results_table(const std::vector<const RunResult*>& results) {
  const auto first = std::find_if(results.begin(), results.end(),
                                  [](const RunResult* r) { return r != nullptr; });
  if (first == results.end()) return "";
  std::vector<std::string> header;
  for (auto& [name, cell] : (*first)->row()) header.push_back(std::move(name));
  monitor::TextTable table(std::move(header));
  for (const RunResult* r : results) {
    if (r == nullptr) continue;
    std::vector<std::string> cells;
    for (auto& [name, cell] : r->row()) cells.push_back(std::move(cell));
    table.add_row(std::move(cells));
  }
  return table.to_string();
}

}  // namespace attain::scenario
