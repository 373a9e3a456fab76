#include "scenario/experiment.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <typeinfo>
#include <unordered_set>

#include "attain/dsl/parser.hpp"
#include "common/arena.hpp"
#include "packet/codec.hpp"
#include "topo/generators.hpp"

namespace attain::scenario {

Testbed::Testbed(topo::SystemModel model, TestbedOptions options)
    : model_(std::move(model)), options_(options) {
  build();
}

dpl::Host& Testbed::host(const std::string& name) {
  const EntityId id = model_.require(name);
  if (id.kind != EntityKind::Host) throw std::invalid_argument(name + " is not a host");
  return *hosts_[id.index];
}

swsim::OpenFlowSwitch& Testbed::switch_named(const std::string& name) {
  const EntityId id = model_.require(name);
  if (id.kind != EntityKind::Switch) throw std::invalid_argument(name + " is not a switch");
  return *switches_[id.index];
}

void Testbed::build() {
  monitor_.set_counters_only(options_.monitor_counters_only);

  controller_ = ctl::make_controller(options_.controller, sched_, options_.controller_processing);

  injector_ = std::make_unique<inject::RuntimeInjector>(sched_, model_, monitor_);
  injector_->set_use_compiled(options_.use_compiled);

  // Hosts and switches.
  for (const topo::HostSpec& spec : model_.hosts()) {
    hosts_.push_back(std::make_unique<dpl::Host>(sched_, spec.name, spec.mac, spec.ip));
  }
  for (const topo::SwitchSpec& spec : model_.switches()) {
    swsim::SwitchConfig config;
    config.name = spec.name;
    config.dpid = spec.dpid;
    config.num_ports = spec.num_ports;
    config.fail_secure = spec.fail_secure;
    config.table_capacity = options_.table_capacity;
    switches_.push_back(std::make_unique<swsim::OpenFlowSwitch>(sched_, config));
  }

  // Data-plane links: one pipe per direction per link. Each switch's packet
  // sender owns a table of its output pipes indexed by port number, so
  // wiring costs O(ports) and forwarding costs one index. A packet sent to a
  // port with no link, or beyond the table, is dropped silently.
  using PortTable = std::vector<sim::Pipe<pkt::Packet>*>;
  std::vector<PortTable> port_tables;
  port_tables.reserve(switches_.size());
  for (const topo::SwitchSpec& spec : model_.switches()) {
    port_tables.emplace_back(std::size_t{spec.num_ports} + 1, nullptr);  // ports are 1-based
  }
  for (const topo::LinkSpec& link : model_.links()) {
    auto a_to_b = std::make_unique<sim::Pipe<pkt::Packet>>(sched_, options_.data_link);
    auto b_to_a = std::make_unique<sim::Pipe<pkt::Packet>>(sched_, options_.data_link);

    auto wire_receiver = [this](EntityId dst, std::optional<std::uint16_t> dst_port,
                                sim::Pipe<pkt::Packet>& pipe) {
      if (dst.kind == EntityKind::Host) {
        dpl::Host* h = hosts_[dst.index].get();
        pipe.set_receiver([h](pkt::Packet&& p) { h->on_packet(p); });
      } else {
        swsim::OpenFlowSwitch* sw = switches_[dst.index].get();
        const std::uint16_t port = dst_port.value();
        pipe.set_receiver([sw, port](pkt::Packet&& p) { sw->on_packet(port, std::move(p)); });
      }
    };
    wire_receiver(link.b, link.b_port, *a_to_b);
    wire_receiver(link.a, link.a_port, *b_to_a);

    auto wire_sender = [&](EntityId src, std::optional<std::uint16_t> src_port,
                           sim::Pipe<pkt::Packet>* pipe) {
      if (src.kind == EntityKind::Host) {
        hosts_[src.index]->set_sender([pipe](pkt::Packet p) {
          const std::size_t size = p.wire_size();  // argument order is unspecified
          pipe->send(std::move(p), size);
        });
      } else {
        // SystemModel::add_link keeps switch ports within 1..num_ports.
        port_tables[src.index][src_port.value()] = pipe;
      }
    };
    wire_sender(link.a, link.a_port, a_to_b.get());
    wire_sender(link.b, link.b_port, b_to_a.get());

    data_pipes_.push_back(std::move(a_to_b));
    data_pipes_.push_back(std::move(b_to_a));
  }
  for (std::uint32_t i = 0; i < switches_.size(); ++i) {
    switches_[i]->set_packet_sender(
        [table = std::move(port_tables[i])](std::uint16_t port, pkt::Packet p) {
          if (port >= table.size() || table[port] == nullptr) return;
          const std::size_t size = p.wire_size();  // argument order is unspecified
          table[port]->send(std::move(p), size);
        });
  }

  // Control-plane connections: switch <-> proxy <-> controller, one
  // chan::Channel per connection (two duplex pipe segments inside). The
  // switch never talks to the controller directly — exactly the paper's
  // deployment. Frames travel as decode-once envelopes: the sender's
  // encode is the only mandatory codec op; the proxy and the far endpoint
  // reuse the cached typed view.
  for (const topo::ControlConnSpec& conn : model_.control_connections()) {
    swsim::OpenFlowSwitch* sw = switches_[conn.id.sw.index].get();

    chan::ChannelConfig channel_config;
    channel_config.tls = conn.tls;
    channel_config.segment = options_.control_link;
    auto channel = std::make_unique<chan::Channel>(sched_, channel_config);

    const ctl::ConnHandle handle = controller_->add_connection(channel->controller_sender());

    channel->set_switch_sink(
        [sw](chan::Envelope&& e) { sw->on_control_envelope(std::move(e)); });
    channel->set_controller_sink([this, handle](chan::Envelope&& e) {
      controller_->on_envelope(handle, std::move(e));
    });

    injector_->attach_channel(*channel, conn.id);

    sw->set_control_sender(channel->switch_sender());

    channels_.push_back(std::move(channel));
  }
}

chan::DirectionCounters Testbed::channel_totals() const {
  chan::DirectionCounters totals;
  for (const auto& channel : channels_) totals.add(channel->totals());
  return totals;
}

void Testbed::connect_switches_at(SimTime when) {
  for (auto& sw : switches_) {
    sched_.at(when, [s = sw.get()] { s->connect(); });
  }
}

dsl::CompiledAttack Testbed::compile_attack(const std::string& dsl_source) {
  const dsl::Document doc = dsl::parse_document(dsl_source, model_);
  if (doc.attacks.empty()) throw std::invalid_argument("DSL source declares no attack");
  return dsl::compile(doc.attacks.front(), model_, doc.capabilities);
}

void Testbed::arm_attack_at(SimTime when, const std::string& dsl_source) {
  const dsl::Document doc = dsl::parse_document(dsl_source, model_);
  if (doc.attacks.empty()) throw std::invalid_argument("DSL source declares no attack");
  arm_attack_at(when, doc.attacks.front(), doc.capabilities);
}

void Testbed::arm_attack_at(SimTime when, const lang::Attack& attack,
                            const model::CapabilityMap& capabilities) {
  auto armed = std::make_unique<ArmedAttack>();
  armed->capabilities = capabilities;
  armed->attack = dsl::compile(attack, model_, armed->capabilities);
  ArmedAttack* raw = armed.get();
  armed_.push_back(std::move(armed));
  sched_.at(when, [this, raw] { injector_->arm(raw->attack, raw->capabilities); });
}

namespace {

/// The common block every experiment reports, read off the testbed after
/// the cell ran.
void fill_common(RunResult& result, const RunSpec& cell, Testbed& bed) {
  result.controller = cell.controller;
  result.attack_enabled = cell.attack_enabled;
  result.options = cell.options;
  result.virtual_time = bed.scheduler().now();
  result.events_executed = bed.scheduler().events_executed();
  result.messages_interposed = bed.injector().stats().messages_interposed;
  result.messages_suppressed = bed.injector().stats().messages_suppressed;
  result.codec_ops_saved = bed.channel_totals().codec_ops_saved;
  if (const inject::AttackExecutor* exec = bed.injector().executor()) {
    result.rules_skipped_by_guard = exec->stats().rules_skipped_by_guard;
    result.programs_executed = exec->stats().programs_executed;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Experiment 1: flow modification suppression.
// ---------------------------------------------------------------------------

std::optional<double> SuppressionResult::mean_throughput_mbps() const {
  if (iperf_mbps.empty()) return std::nullopt;
  double sum = 0.0;
  bool any_nonzero = false;
  for (const double v : iperf_mbps) {
    sum += v;
    if (v > 0.0) any_nonzero = true;
  }
  if (!any_nonzero) return std::nullopt;  // the paper's "*": zero throughput
  return sum / static_cast<double>(iperf_mbps.size());
}

std::optional<double> SuppressionResult::mean_latency_ms() const {
  const auto rtt = ping.mean_rtt_seconds();
  if (!rtt) return std::nullopt;  // "*": latency infinite
  return *rtt * 1e3;
}

double SuppressionResult::control_amplification() const {
  const double data =
      static_cast<double>(data_packets_delivered > 0 ? data_packets_delivered : 1);
  return static_cast<double>(packet_ins + packet_outs + flow_mods_observed) / data;
}

TableRow SuppressionResult::row() const {
  using monitor::TextTable;
  return {{"controller", to_string(controller)},
          {"mode", attack_enabled ? "attack" : "baseline"},
          {"throughput Mbps", TextTable::num_or_star(mean_throughput_mbps())},
          {"RTT ms", TextTable::num_or_star(mean_latency_ms(), 3)},
          {"loss %", TextTable::num(ping.sent() > 0 ? ping.loss_fraction() * 100.0 : 0.0, 1)},
          {"PACKET_IN", std::to_string(packet_ins)},
          {"PACKET_OUT", std::to_string(packet_outs)},
          {"FLOW_MOD", std::to_string(flow_mods_observed)},
          {"suppressed", std::to_string(flow_mods_suppressed)},
          {"data pkts", std::to_string(data_packets_delivered)},
          {"ctl msgs/pkt", TextTable::num(control_amplification(), 3)},
          {"interposed", std::to_string(messages_interposed)},
          {"codec saved", std::to_string(codec_ops_saved)}};
}

void SuppressionResult::fields(FieldCodec& codec) {
  codec.field("ping", ping);
  codec.field("iperf_mbps", iperf_mbps);
  codec.derived("mean_throughput_mbps", mean_throughput_mbps());
  codec.field("packet_ins", packet_ins);
  codec.field("packet_outs", packet_outs);
  codec.field("flow_mods_observed", flow_mods_observed);
  codec.field("flow_mods_suppressed", flow_mods_suppressed);
  codec.field("data_packets_delivered", data_packets_delivered);
}

namespace {

/// The suppression workload script: pings from t=30 s, a 5 s guard, the
/// iperf trials back to back (duration + gap each), then a 2 s drain.
SimTime suppression_iperf_start(const RunSpec& spec) {
  return seconds(30) + static_cast<SimTime>(spec.ping_trials) * kSecond + 5 * kSecond;
}

SimTime suppression_end(const RunSpec& spec) {
  return suppression_iperf_start(spec) +
         static_cast<SimTime>(spec.iperf_trials) * (spec.iperf_duration + spec.iperf_gap) +
         2 * kSecond;
}

/// Phase A of the suppression experiment: testbed built and the full
/// workload scripted, minus attack arming (a fork-time parameter applied
/// by finish()).
class SuppressionWarmup final : public WarmupPhase {
 public:
  explicit SuppressionWarmup(const RunSpec& rep) : rep_(rep) {
    if (!rep_.topology.is_enterprise()) {
      throw std::invalid_argument(
          "flow-mod suppression runs on the enterprise topology only (its §VII-B "
          "script names h1/h6); use ExperimentKind::Volumetric for generated "
          "topologies");
    }
    TestbedOptions options;
    options.controller = rep_.controller;
    options.use_compiled = rep_.options.use_compiled;
    bed_ = std::make_unique<Testbed>(make_enterprise_model(), options);
    auto& sched = bed_->scheduler();

    // §VII-B timing: controller at t=0 (always-on here), injector armed to
    // σ1 at t=5 s (by finish(), before any control traffic), switches
    // connect at t=6 s so every message is interposed, ping at t=30 s,
    // iperf afterwards.
    bed_->connect_switches_at(seconds(6));

    dpl::Host& h1 = bed_->host("h1");
    dpl::Host& h6 = bed_->host("h6");

    ping_ = std::make_unique<dpl::PingApp>(h1, h6.ip(), /*icmp_id=*/100);
    sched.at(seconds(30), [this] { ping_->start(rep_.ping_trials); });

    // iperf trials: server on h6, fresh client per trial (distinct ports so
    // stragglers from a finished trial cannot ack into the next one).
    SimTime t = suppression_iperf_start(rep_);
    for (unsigned trial = 0; trial < rep_.iperf_trials; ++trial) {
      sched.at(t, [this, trial] {
        dpl::IperfClientConfig cc;
        cc.server_port = static_cast<std::uint16_t>(5001 + trial);
        cc.client_port = static_cast<std::uint16_t>(50000 + trial);
        servers_.push_back(std::make_unique<dpl::IperfServer>(bed_->host("h6"), cc.server_port));
        clients_.push_back(
            std::make_unique<dpl::IperfClient>(bed_->host("h1"), bed_->host("h6").ip(), cc));
        clients_.back()->start(rep_.iperf_duration);
      });
      t += rep_.iperf_duration + rep_.iperf_gap;
    }
  }

  void advance_to(SimTime deadline) override { bed_->run_until(deadline); }

  RunResultPtr finish(const RunSpec& cell) override {
    // The arm event is the cell's only divergence from the shared prefix.
    // It is safe to schedule it at the current virtual time (the fork
    // point IS the arm time): nothing else is due at that instant for the
    // default t=5 s start, and campaign starts assign it the same
    // post-script sequence number in cold and warm runs alike.
    if (cell.attack_enabled) {
      bed_->arm_attack_at(resolved_attack_start(cell), flow_mod_suppression_dsl());
    }
    bed_->run_until(suppression_end(rep_));

    auto result = std::make_unique<SuppressionResult>();
    fill_common(*result, cell, *bed_);
    result->ping = ping_->report();
    for (const auto& client : clients_) {
      result->iperf_mbps.push_back(client->result().throughput_mbps());
    }
    const monitor::Monitor& mon = bed_->monitor();
    result->packet_ins = mon.observed_of_type(ofp::MsgType::PacketIn);
    result->packet_outs = mon.observed_of_type(ofp::MsgType::PacketOut);
    result->flow_mods_observed = mon.observed_of_type(ofp::MsgType::FlowMod);
    result->flow_mods_suppressed = mon.count(monitor::EventKind::MessageDropped);
    for (const topo::HostSpec& hspec : bed_->model().hosts()) {
      result->data_packets_delivered += bed_->host(hspec.name).counters().packets_received;
    }
    return result;
  }

 private:
  RunSpec rep_;
  std::unique_ptr<Testbed> bed_;
  std::unique_ptr<dpl::PingApp> ping_;
  std::vector<std::unique_ptr<dpl::IperfServer>> servers_;
  std::vector<std::unique_ptr<dpl::IperfClient>> clients_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Experiment 2: connection interruption.
// ---------------------------------------------------------------------------

TableRow InterruptionResult::row() const {
  auto yn = [](bool v) { return std::string(v ? "yes" : "no"); };
  return {{"controller", to_string(controller)},
          {"s2 fail mode", s2_fail_secure ? "fail-secure" : "fail-safe"},
          {"ext->ext t30", yn(ext_to_ext_t30)},
          {"int->ext t30", yn(int_to_ext_t30)},
          {"ext->int t50", yn(ext_to_int_t50)},
          {"int->ext t95", yn(int_to_ext_t95)},
          {"sigma3", yn(attack_reached_sigma3)},
          {"interposed", std::to_string(messages_interposed)},
          {"suppressed", std::to_string(messages_suppressed)},
          {"codec saved", std::to_string(codec_ops_saved)}};
}

void InterruptionResult::fields(FieldCodec& codec) {
  codec.field("s2_fail_secure", s2_fail_secure);
  codec.field("ext_to_ext_t30", ext_to_ext_t30);
  codec.field("int_to_ext_t30", int_to_ext_t30);
  codec.field("ext_to_int_t50", ext_to_int_t50);
  codec.field("int_to_ext_t95", int_to_ext_t95);
  codec.field("attack_reached_sigma3", attack_reached_sigma3);
}

namespace {

/// Phase A of the interruption experiment: the full §VII-C script is
/// scheduled up front (arm, connect, all four probes), so the prefix is
/// byte-identical to a straight-through run; the only fork-time parameter
/// is the s2 fail mode, which is a plain config write.
class InterruptionWarmup final : public WarmupPhase {
 public:
  explicit InterruptionWarmup(const RunSpec& rep) : rep_(rep) {
    if (!rep_.topology.is_enterprise()) {
      throw std::invalid_argument(
          "connection interruption runs on the enterprise topology only (its "
          "§VII-C script names s2/h1/h2/h3/h6); use ExperimentKind::Volumetric "
          "for generated topologies");
    }
    TestbedOptions options;
    options.controller = rep_.controller;
    options.use_compiled = rep_.options.use_compiled;
    EnterpriseOptions enterprise;
    enterprise.s2_fail_secure = rep_.options.fail_secure;
    bed_ = std::make_unique<Testbed>(make_enterprise_model(enterprise), options);
    auto& sched = bed_->scheduler();

    // §VII-C timing: fail mode applied at the fork point (finish()),
    // controller at t=5, injector to σ1 at t=10, switches connect at t=12
    // (through the armed proxy so σ1 observes the connection setup),
    // probes at t=30/50/95.
    if (rep_.attack_enabled) {
      bed_->arm_attack_at(resolved_attack_start(rep_), connection_interruption_dsl());
    }
    bed_->connect_switches_at(seconds(12));

    pings_.resize(4);
    auto schedule_ping = [&](SimTime when, const char* src, const char* dst, unsigned trials,
                             std::uint16_t icmp_id, std::size_t slot) {
      sched.at(when, [this, src, dst, trials, icmp_id, slot] {
        pings_[slot] = std::make_unique<dpl::PingApp>(bed_->host(src), bed_->host(dst).ip(), icmp_id);
        pings_[slot]->start(trials);
      });
    };
    schedule_ping(seconds(30), "h2", "h1", 10, 201, 0);  // external -> external
    schedule_ping(seconds(30), "h6", "h1", 10, 202, 1);  // internal -> external
    schedule_ping(seconds(50), "h2", "h3", 60, 203, 2);  // external -> internal
    schedule_ping(seconds(95), "h6", "h1", 10, 204, 3);  // internal -> external (post)
  }

  void advance_to(SimTime deadline) override { bed_->run_until(deadline); }

  RunResultPtr finish(const RunSpec& cell) override {
    // The fail-mode bit is only consulted once s2's control channel leaves
    // Connected (first at the t=62 s loss), so writing it at the t=55 s
    // fork point is indistinguishable from building the model with it.
    bed_->switch_named("s2").set_fail_secure(cell.options.fail_secure);
    bed_->run_until(seconds(125));

    auto result = std::make_unique<InterruptionResult>();
    fill_common(*result, cell, *bed_);
    result->s2_fail_secure = cell.options.fail_secure;
    result->ext_to_ext_t30 = pings_[0]->report().received() > 0;
    result->int_to_ext_t30 = pings_[1]->report().received() > 0;
    result->ext_to_int_t50 = pings_[2]->report().received() > 0;
    result->int_to_ext_t95 = pings_[3]->report().received() > 0;
    result->attack_reached_sigma3 =
        bed_->injector().current_state() == std::optional<std::string>("sigma3");
    return result;
  }

 private:
  RunSpec rep_;
  std::unique_ptr<Testbed> bed_;
  std::vector<std::unique_ptr<dpl::PingApp>> pings_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Experiment 3: volumetric control-plane workloads.
// ---------------------------------------------------------------------------

std::optional<double> VolumetricResult::probe_mean_rtt_ms() const {
  const auto rtt = probe.mean_rtt_seconds();
  if (!rtt) return std::nullopt;  // "*": every probe lost
  return *rtt * 1e3;
}

TableRow VolumetricResult::row() const {
  using monitor::TextTable;
  return {{"controller", to_string(controller)},
          {"topology", topology_id},
          {"mode", attack_enabled ? to_string(volumetric) : "baseline"},
          {"injected", std::to_string(flood_packets_injected)},
          {"PACKET_IN", std::to_string(packet_ins)},
          {"FLOW_MOD", std::to_string(flow_mods_observed)},
          {"rejected", std::to_string(flow_mods_rejected)},
          {"misses", std::to_string(table_misses)},
          {"drops", std::to_string(miss_drops)},
          {"entries", std::to_string(table_entries_final)},
          {"peak", std::to_string(table_entries_peak)},
          {"probe RTT ms", TextTable::num_or_star(probe_mean_rtt_ms(), 3)},
          {"probe loss %",
           TextTable::num(probe.sent() > 0 ? probe.loss_fraction() * 100.0 : 0.0, 1)}};
}

void VolumetricResult::fields(FieldCodec& codec) {
  codec.field("volumetric", volumetric);
  codec.field("topology", topology_id);
  codec.field("flood_packets_injected", flood_packets_injected);
  codec.field("packet_ins", packet_ins);
  codec.field("packet_outs", packet_outs);
  codec.field("flow_mods_observed", flow_mods_observed);
  codec.field("flow_mods_rejected", flow_mods_rejected);
  codec.field("table_misses", table_misses);
  codec.field("miss_drops", miss_drops);
  codec.field("table_entries_final", table_entries_final);
  codec.field("table_entries_peak", table_entries_peak);
  codec.field("probe", probe);
}

namespace {

/// The volumetric probe script: switches connect at t=1 s, the probe ping
/// starts at t=3 s (one trial per second, sized to outlast the flood
/// window), then a 2 s drain.
unsigned volumetric_probe_trials(const RunSpec& spec) {
  return static_cast<unsigned>(spec.flood_duration / kSecond) + 10;
}

SimTime volumetric_end(const RunSpec& spec) {
  return seconds(3) + static_cast<SimTime>(volumetric_probe_trials(spec)) * kSecond +
         2 * kSecond;
}

/// Phase A of a volumetric cell: testbed built on the cell's (generated)
/// topology, background probe ping and the 1 s occupancy sampler scripted.
/// The flood itself — kind, flow count, batching, timing — is a fork-time
/// parameter applied by finish().
class VolumetricWarmup final : public WarmupPhase {
 public:
  explicit VolumetricWarmup(const RunSpec& rep) : rep_(rep) {
    TestbedOptions options;
    options.controller = rep_.controller;
    options.use_compiled = rep_.options.use_compiled;
    options.table_capacity = rep_.table_capacity;
    topo::BuildOptions build;
    build.chokepoint_fail_secure = rep_.options.fail_secure;
    bed_ = std::make_unique<Testbed>(topo::build_model(rep_.topology, build), options);
    auto& sched = bed_->scheduler();

    // Timing: switches connect at t=1 s, the probe crosses the fabric from
    // t=3 s (one trial per second, sized to outlast the default-start flood
    // window plus settle time), flood per the cell's attack_start.
    bed_->connect_switches_at(kVolumetricConnectTime);

    const auto& hosts = bed_->model().hosts();
    const topo::HostSpec& src = hosts.front();
    const topo::HostSpec& dst = hosts.back();
    ping_ = std::make_unique<dpl::PingApp>(bed_->host(src.name), dst.ip, /*icmp_id=*/300);
    sched.at(seconds(3), [this] { ping_->start(volumetric_probe_trials(rep_)); });

    // Occupancy sampler: total live entries across the fabric every second.
    // Scripted in the shared prefix so cold and warm runs execute identical
    // event sequences.
    for (SimTime t = seconds(2); t < volumetric_end(rep_); t += kSecond) {
      sched.at(t, [this] { peak_ = std::max(peak_, total_entries()); });
    }
  }

  void advance_to(SimTime deadline) override { bed_->run_until(deadline); }

  RunResultPtr finish(const RunSpec& cell) override {
    if (cell.attack_enabled) schedule_flood(cell);
    bed_->run_until(volumetric_end(rep_));

    auto result = std::make_unique<VolumetricResult>();
    fill_common(*result, cell, *bed_);
    result->volumetric = cell.volumetric;
    result->topology_id = cell.topology.id();
    result->flood_packets_injected = injected_;
    const monitor::Monitor& mon = bed_->monitor();
    result->packet_ins = mon.observed_of_type(ofp::MsgType::PacketIn);
    result->packet_outs = mon.observed_of_type(ofp::MsgType::PacketOut);
    result->flow_mods_observed = mon.observed_of_type(ofp::MsgType::FlowMod);
    for (const topo::SwitchSpec& spec : bed_->model().switches()) {
      const swsim::SwitchCounters& c = bed_->switch_named(spec.name).counters();
      result->flow_mods_rejected += c.flow_mods_rejected;
      result->table_misses += c.table_misses;
      result->miss_drops += c.miss_drops;
    }
    result->table_entries_final = total_entries();
    result->table_entries_peak = std::max(peak_, result->table_entries_final);
    result->probe = ping_->report();
    return result;
  }

 private:
  std::uint64_t total_entries() const {
    std::uint64_t total = 0;
    for (const topo::SwitchSpec& spec : bed_->model().switches()) {
      total += bed_->switch_named(spec.name).flow_table().size();
    }
    return total;
  }

  /// Schedules the flood: one injection source per host-bearing switch
  /// (the first attached host's port, in model order), one scheduler event
  /// per source per batch interval. Every spoofed frame carries a distinct
  /// source address drawn from the source's disjoint 192.0.0.0/2 slice, so
  /// each opens a fresh flow toward the last host:
  ///   PacketInFlood / TableOverflow — the source's flood_flows flows are
  ///   spread evenly across the batches (each frame a fresh table miss);
  ///   SlowRate — every batch re-sends the same flood_flows flows, keeping
  ///   idle timers refreshed so the entries pin the table indefinitely.
  void schedule_flood(const RunSpec& cell) {
    const topo::SystemModel& model = bed_->model();
    const topo::HostSpec& victim = model.hosts().back();
    const pkt::MacAddress victim_mac = victim.mac;
    const pkt::Ipv4Address victim_ip = victim.ip;

    struct Source {
      std::string sw;
      std::uint16_t port;
    };
    std::vector<Source> sources;
    std::unordered_set<std::uint32_t> seen;
    for (const topo::HostSpec& h : model.hosts()) {
      const auto [sw, port] = model.attachment_of(model.require(h.name));
      if (seen.insert(sw.index).second) sources.push_back({model.name_of(sw), port});
    }

    auto& sched = bed_->scheduler();
    const SimTime start = resolved_attack_start(cell);
    const SimTime batch_gap = std::max<SimTime>(1, cell.flood_batch);
    const std::uint64_t batches =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(cell.flood_duration / batch_gap));
    const bool slow_rate = cell.volumetric == VolumetricKind::SlowRate;

    for (std::size_t s = 0; s < sources.size(); ++s) {
      const std::uint64_t base = static_cast<std::uint64_t>(s) * cell.flood_flows;
      for (std::uint64_t b = 0; b < batches; ++b) {
        const std::uint64_t lo = slow_rate ? 0 : b * cell.flood_flows / batches;
        const std::uint64_t hi = slow_rate ? cell.flood_flows : (b + 1) * cell.flood_flows / batches;
        if (lo == hi) continue;
        sched.at(start + static_cast<SimTime>(b) * batch_gap,
                 [this, name = sources[s].sw, port = sources[s].port, base, lo, hi, victim_mac,
                  victim_ip] {
                   emit_flood_batch(bed_->switch_named(name), port, base, lo, hi, victim_mac,
                                    victim_ip);
                 });
      }
    }
  }

  /// Flood emission: one (source, interval) event hands its frames to the
  /// switch one at a time. Every packet is a fixed TCP SYN toward the
  /// victim with the flow's own source MAC, IPv4 address and TCP port; the
  /// switch ships each miss as a typed frame, so no packet is encoded.
  void emit_flood_batch(swsim::OpenFlowSwitch& sw, std::uint16_t port, std::uint64_t base,
                        std::uint64_t lo, std::uint64_t hi, pkt::MacAddress victim_mac,
                        pkt::Ipv4Address victim_ip) {
    pkt::TcpHeader tcp;
    tcp.dst_port = 80;
    tcp.flags = pkt::kTcpSyn;
    pkt::Packet packet = pkt::make_tcp(pkt::MacAddress{}, victim_mac, pkt::Ipv4Address{},
                                       victim_ip, tcp, /*payload_size=*/0, /*tag=*/0);
    for (std::uint64_t f = lo; f < hi; ++f) {
      packet.eth.src = pkt::MacAddress::from_u64(0x0aad00000000ULL | (base + f));
      packet.ipv4->src = pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + base + f)};
      packet.tcp->src_port = static_cast<std::uint16_t>(40000 + (f & 0x3fff));
      ++injected_;
      sw.on_packet(port, packet);
    }
  }

  RunSpec rep_;
  std::unique_ptr<Testbed> bed_;
  std::unique_ptr<dpl::PingApp> ping_;
  std::uint64_t injected_{0};
  std::uint64_t peak_{0};
};

}  // namespace

// ---------------------------------------------------------------------------
// RunSpec dispatch (declared in scenario/run.hpp).
// ---------------------------------------------------------------------------

WarmupPhasePtr warm_up(const RunSpec& representative) {
  switch (representative.experiment) {
    case ExperimentKind::FlowModSuppression:
      return std::make_unique<SuppressionWarmup>(representative);
    case ExperimentKind::ConnectionInterruption:
      return std::make_unique<InterruptionWarmup>(representative);
    case ExperimentKind::Volumetric:
      return std::make_unique<VolumetricWarmup>(representative);
    case ExperimentKind::Custom:
      break;
  }
  throw std::invalid_argument("warm_up: custom cells have no warm-up phase");
}

SimTime fork_time(const RunSpec& spec) {
  switch (spec.experiment) {
    case ExperimentKind::FlowModSuppression:
      // Baselines never diverge from the representative: fork at the end
      // and the whole run is shared.
      return spec.attack_enabled ? resolved_attack_start(spec) : suppression_end(spec);
    case ExperimentKind::ConnectionInterruption:
      // The s2 fail bit is first read when the switch notices the lost
      // connection at t=62 s; t=55 s is safely after σ2 has fired and
      // before any read.
      return seconds(55);
    case ExperimentKind::Volumetric:
      if (!spec.attack_enabled) return volumetric_end(spec);
      check_attack_start(spec);
      return resolved_attack_start(spec);
    case ExperimentKind::Custom:
      break;
  }
  throw std::invalid_argument("fork_time: custom cells have no shared warm-up");
}

RunResultPtr run(const RunSpec& spec) {
  if (spec.experiment == ExperimentKind::Custom) {
    if (!spec.custom) {
      throw std::invalid_argument("RunSpec: ExperimentKind::Custom without a runner");
    }
    return spec.custom(spec);
  }
  // Cold runs take the phased path too: a forked (warm) cell replays the
  // exact instruction sequence of a cold one, which is what makes the
  // warm-start byte-determinism guarantee structural.
  WarmupPhasePtr phase = warm_up(warmup_representative(spec));
  phase->advance_to(fork_time(spec));
  RunResultPtr result = phase->finish(spec);
  // One cell done: mark the boundary so per-cell allocation deltas (bench
  // harness, memory-guard tests) can key off it. The thread slab persists —
  // the next cell on this thread reuses its freelists.
  mem::run_boundary();
  return result;
}

// ---------------------------------------------------------------------------
// Binary result round-trip (the snapshot fork's process boundary).
// ---------------------------------------------------------------------------

namespace {

/// The result types save_result can ship, keyed by their record tag.
struct ResultType {
  std::uint8_t tag;
  const std::type_info* type;
  RunResultPtr (*make)();
};

template <typename T>
RunResultPtr make_result() {
  return std::make_unique<T>();
}

const ResultType kResultTypes[] = {
    {1, &typeid(SuppressionResult), make_result<SuppressionResult>},
    {2, &typeid(InterruptionResult), make_result<InterruptionResult>},
    {3, &typeid(VolumetricResult), make_result<VolumetricResult>},
};

// Record layout: tag, this common block, then fields(). The counters come
// before the fields here, while JSON puts control_channel after them;
// both orders are pinned by the golden corpus.
void save_common(const RunResult& r, ByteWriter& w) {
  w.u8(static_cast<std::uint8_t>(r.controller));
  w.u8(r.attack_enabled ? 1 : 0);
  w.u8(static_cast<std::uint8_t>((r.options.fail_secure ? 1 : 0) |
                                 (r.options.use_compiled ? 2 : 0) |
                                 (r.options.extended_control_channel_json ? 4 : 0)));
  w.u64(static_cast<std::uint64_t>(r.virtual_time));
  w.u64(r.events_executed);
  w.u64(r.messages_interposed);
  w.u64(r.messages_suppressed);
  w.u64(r.codec_ops_saved);
  w.u64(r.rules_skipped_by_guard);
  w.u64(r.programs_executed);
}

// An unregistered controller byte is a DecodeError here, not a to_json()
// failure after a resumed journal has accepted the record.
ControllerKind load_controller(ByteReader& r) {
  const std::uint8_t byte = r.u8();
  for (const ControllerKind kind : all_controller_kinds()) {
    if (static_cast<std::uint8_t>(kind) == byte) return kind;
  }
  throw DecodeError("load_result: unregistered controller " + std::to_string(byte));
}

void load_common(RunResult& r, ByteReader& rd) {
  r.controller = load_controller(rd);
  r.attack_enabled = rd.u8() != 0;
  const std::uint8_t opts = rd.u8();
  r.options.fail_secure = (opts & 1) != 0;
  r.options.use_compiled = (opts & 2) != 0;
  r.options.extended_control_channel_json = (opts & 4) != 0;
  r.virtual_time = static_cast<SimTime>(rd.u64());
  r.events_executed = rd.u64();
  r.messages_interposed = rd.u64();
  r.messages_suppressed = rd.u64();
  r.codec_ops_saved = rd.u64();
  r.rules_skipped_by_guard = rd.u64();
  r.programs_executed = rd.u64();
}

}  // namespace

void save_result(const RunResult& result, ByteWriter& w) {
  const auto type = std::find_if(std::begin(kResultTypes), std::end(kResultTypes),
                                 [&](const ResultType& t) { return *t.type == typeid(result); });
  if (type == std::end(kResultTypes)) {
    throw std::invalid_argument("save_result: unsupported result type: " + result.kind_name());
  }
  w.u8(type->tag);
  save_common(result, w);
  FieldCodec codec(w);
  // A writing codec only reads the fields.
  const_cast<RunResult&>(result).fields(codec);
}

RunResultPtr load_result(ByteReader& r) {
  const std::uint8_t tag = r.u8();
  const auto type = std::find_if(std::begin(kResultTypes), std::end(kResultTypes),
                                 [&](const ResultType& t) { return t.tag == tag; });
  if (type == std::end(kResultTypes)) {
    throw DecodeError("load_result: unknown result tag " + std::to_string(tag));
  }
  RunResultPtr result = type->make();
  load_common(*result, r);
  FieldCodec codec(r);
  result->fields(codec);
  return result;
}

std::uint64_t result_digest(const RunResult& result) {
  ByteWriter w;
  save_result(result, w);
  return fnv1a64(w.bytes());
}

// ---------------------------------------------------------------------------

std::string render_table2(const std::vector<InterruptionResult>& results) {
  monitor::TextTable table({"question", "Floodlight/safe", "Floodlight/secure", "POX/safe",
                            "POX/secure", "Ryu/safe", "Ryu/secure"});
  auto find = [&](ControllerKind kind, bool secure) -> const InterruptionResult* {
    for (const InterruptionResult& r : results) {
      if (r.controller == kind && r.s2_fail_secure == secure) return &r;
    }
    return nullptr;
  };
  auto row = [&](const char* question, auto getter) {
    std::vector<std::string> cells{question};
    for (const ControllerKind kind :
         {ControllerKind::Floodlight, ControllerKind::Pox, ControllerKind::Ryu}) {
      for (const bool secure : {false, true}) {
        const InterruptionResult* r = find(kind, secure);
        cells.push_back(r == nullptr ? "?" : (getter(*r) ? "yes" : "no"));
      }
    }
    table.add_row(std::move(cells));
  };
  row("ext->ext reachable (t=30s)", [](const InterruptionResult& r) { return r.ext_to_ext_t30; });
  row("int->ext reachable (t=30s)", [](const InterruptionResult& r) { return r.int_to_ext_t30; });
  row("ext->int reachable (t=50s)", [](const InterruptionResult& r) { return r.ext_to_int_t50; });
  row("int->ext reachable (t=95s)", [](const InterruptionResult& r) { return r.int_to_ext_t95; });
  return table.to_string();
}

std::string render_table2(const std::vector<const RunResult*>& results) {
  std::vector<InterruptionResult> rows;
  for (const RunResult* r : results) {
    if (const auto* ir = dynamic_cast<const InterruptionResult*>(r)) rows.push_back(*ir);
  }
  return render_table2(rows);
}

}  // namespace attain::scenario
