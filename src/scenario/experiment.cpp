#include "scenario/experiment.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_set>

#include "attain/dsl/parser.hpp"
#include "common/arena.hpp"
#include "packet/codec.hpp"
#include "packet/stamp.hpp"
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

  // Data-plane links: one pipe per direction per link; switch packet
  // senders look their output pipe up by (switch index, port).
  std::map<std::pair<std::uint32_t, std::uint16_t>, sim::Pipe<pkt::Packet>*> switch_out;
  for (const topo::LinkSpec& link : model_.links()) {
    auto a_to_b = std::make_unique<sim::Pipe<pkt::Packet>>(sched_, options_.data_link);
    auto b_to_a = std::make_unique<sim::Pipe<pkt::Packet>>(sched_, options_.data_link);

    auto wire_receiver = [this](EntityId dst, std::optional<std::uint16_t> dst_port,
                                sim::Pipe<pkt::Packet>& pipe) {
      if (dst.kind == EntityKind::Host) {
        dpl::Host* h = hosts_[dst.index].get();
        pipe.set_receiver([h](pkt::Packet p) { h->on_packet(p); });
      } else {
        swsim::OpenFlowSwitch* sw = switches_[dst.index].get();
        const std::uint16_t port = dst_port.value();
        pipe.set_receiver([sw, port](pkt::Packet p) { sw->on_packet(port, std::move(p)); });
      }
    };
    wire_receiver(link.b, link.b_port, *a_to_b);
    wire_receiver(link.a, link.a_port, *b_to_a);

    auto wire_sender = [&](EntityId src, std::optional<std::uint16_t> src_port,
                           sim::Pipe<pkt::Packet>* pipe) {
      if (src.kind == EntityKind::Host) {
        hosts_[src.index]->set_sender(
            [pipe](pkt::Packet p) { pipe->send(p, p.wire_size()); });
      } else {
        switch_out[{src.index, src_port.value()}] = pipe;
      }
    };
    wire_sender(link.a, link.a_port, a_to_b.get());
    wire_sender(link.b, link.b_port, b_to_a.get());

    data_pipes_.push_back(std::move(a_to_b));
    data_pipes_.push_back(std::move(b_to_a));
  }
  for (std::uint32_t i = 0; i < switches_.size(); ++i) {
    swsim::OpenFlowSwitch* sw = switches_[i].get();
    auto lookup = switch_out;  // copy for capture (small)
    sw->set_packet_sender([i, lookup](std::uint16_t port, pkt::Packet p) {
      const auto it = lookup.find({i, port});
      if (it != lookup.end()) it->second->send(p, p.wire_size());
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
    channel_config.name = model_.name_of(conn.id.sw) + "<->" + model_.name_of(conn.id.controller);
    channel_config.tls = conn.tls;
    channel_config.segment = options_.control_link;
    auto channel = std::make_unique<chan::Channel>(sched_, channel_config);

    const ctl::ConnHandle handle = controller_->add_connection(channel->controller_sender());

    channel->set_switch_sink(
        [sw](chan::Envelope e) { sw->on_control_envelope(std::move(e)); });
    channel->set_controller_sink([this, handle](chan::Envelope e) {
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

std::vector<std::string> SuppressionResult::row_header() const {
  return {"controller", "mode",       "throughput Mbps", "RTT ms",    "loss %",
          "PACKET_IN",  "PACKET_OUT", "FLOW_MOD",        "suppressed", "data pkts",
          "ctl msgs/pkt", "interposed", "codec saved"};
}

std::vector<std::string> SuppressionResult::to_row() const {
  using monitor::TextTable;
  return {to_string(controller),
          attack_enabled ? "attack" : "baseline",
          TextTable::num_or_star(mean_throughput_mbps()),
          TextTable::num_or_star(mean_latency_ms(), 3),
          TextTable::num(ping.sent() > 0 ? ping.loss_fraction() * 100.0 : 0.0, 1),
          std::to_string(packet_ins),
          std::to_string(packet_outs),
          std::to_string(flow_mods_observed),
          std::to_string(flow_mods_suppressed),
          std::to_string(data_packets_delivered),
          TextTable::num(control_amplification(), 3),
          std::to_string(messages_interposed),
          std::to_string(codec_ops_saved)};
}

void SuppressionResult::write_json_fields(JsonWriter& w) const {
  w.key("ping").begin_object();
  w.field("sent", static_cast<std::uint64_t>(ping.sent()));
  w.field("received", static_cast<std::uint64_t>(ping.received()));
  w.field("loss", ping.sent() > 0 ? ping.loss_fraction() : 0.0);
  w.field_or_null("mean_rtt_ms", mean_latency_ms());
  w.end_object();
  w.key("iperf_mbps").begin_array();
  for (const double v : iperf_mbps) w.value(v);
  w.end_array();
  w.field_or_null("mean_throughput_mbps", mean_throughput_mbps());
  w.field("packet_ins", packet_ins);
  w.field("packet_outs", packet_outs);
  w.field("flow_mods_observed", flow_mods_observed);
  w.field("flow_mods_suppressed", flow_mods_suppressed);
  w.field("data_packets_delivered", data_packets_delivered);
}

namespace {

/// Phase A of the suppression experiment: testbed built and the full
/// workload scripted, minus attack arming (a fork-time parameter applied
/// by finish()). The schedule must stay in lockstep with
/// suppression_end() in scenario/run.cpp.
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
    const SimTime iperf_start = seconds(30) + static_cast<SimTime>(rep_.ping_trials) * kSecond +
                                5 * kSecond;
    SimTime t = iperf_start;
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
    end_ = t + 2 * kSecond;
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
    bed_->run_until(end_);

    auto& sched = bed_->scheduler();
    auto result = std::make_unique<SuppressionResult>();
    result->controller = cell.controller;
    result->attack_enabled = cell.attack_enabled;
    result->options = cell.options;
    result->virtual_time = sched.now();
    result->events_executed = sched.events_executed();
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
    result->messages_interposed = bed_->injector().stats().messages_interposed;
    result->messages_suppressed = bed_->injector().stats().messages_suppressed;
    result->codec_ops_saved = bed_->channel_totals().codec_ops_saved;
    if (const inject::AttackExecutor* exec = bed_->injector().executor()) {
      result->rules_skipped_by_guard = exec->stats().rules_skipped_by_guard;
      result->programs_executed = exec->stats().programs_executed;
    }
    return result;
  }

 private:
  RunSpec rep_;
  std::unique_ptr<Testbed> bed_;
  std::unique_ptr<dpl::PingApp> ping_;
  std::vector<std::unique_ptr<dpl::IperfServer>> servers_;
  std::vector<std::unique_ptr<dpl::IperfClient>> clients_;
  SimTime end_{0};
};

}  // namespace

// ---------------------------------------------------------------------------
// Experiment 2: connection interruption.
// ---------------------------------------------------------------------------

std::vector<std::string> InterruptionResult::row_header() const {
  return {"controller",   "s2 fail mode",  "ext->ext t30", "int->ext t30",
          "ext->int t50", "int->ext t95",  "sigma3",       "interposed",
          "suppressed",   "codec saved"};
}

std::vector<std::string> InterruptionResult::to_row() const {
  auto yn = [](bool v) { return std::string(v ? "yes" : "no"); };
  return {to_string(controller),
          s2_fail_secure ? "fail-secure" : "fail-safe",
          yn(ext_to_ext_t30),
          yn(int_to_ext_t30),
          yn(ext_to_int_t50),
          yn(int_to_ext_t95),
          yn(attack_reached_sigma3),
          std::to_string(messages_interposed),
          std::to_string(messages_suppressed),
          std::to_string(codec_ops_saved)};
}

void InterruptionResult::write_json_fields(JsonWriter& w) const {
  w.field("s2_fail_secure", s2_fail_secure);
  w.field("ext_to_ext_t30", ext_to_ext_t30);
  w.field("int_to_ext_t30", int_to_ext_t30);
  w.field("ext_to_int_t50", ext_to_int_t50);
  w.field("int_to_ext_t95", int_to_ext_t95);
  w.field("attack_reached_sigma3", attack_reached_sigma3);
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

    auto& sched = bed_->scheduler();
    auto result = std::make_unique<InterruptionResult>();
    result->controller = cell.controller;
    result->attack_enabled = cell.attack_enabled;
    result->options = cell.options;
    result->virtual_time = sched.now();
    result->events_executed = sched.events_executed();
    result->s2_fail_secure = cell.options.fail_secure;
    result->ext_to_ext_t30 = pings_[0]->report().received() > 0;
    result->int_to_ext_t30 = pings_[1]->report().received() > 0;
    result->ext_to_int_t50 = pings_[2]->report().received() > 0;
    result->int_to_ext_t95 = pings_[3]->report().received() > 0;
    result->attack_reached_sigma3 =
        bed_->injector().current_state() == std::optional<std::string>("sigma3");
    result->messages_interposed = bed_->injector().stats().messages_interposed;
    result->messages_suppressed = bed_->injector().stats().messages_suppressed;
    result->codec_ops_saved = bed_->channel_totals().codec_ops_saved;
    if (const inject::AttackExecutor* exec = bed_->injector().executor()) {
      result->rules_skipped_by_guard = exec->stats().rules_skipped_by_guard;
      result->programs_executed = exec->stats().programs_executed;
    }
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

std::vector<std::string> VolumetricResult::row_header() const {
  return {"controller", "topology", "mode",     "injected", "PACKET_IN",
          "FLOW_MOD",   "rejected", "misses",   "drops",    "entries",
          "peak",       "probe RTT ms", "probe loss %"};
}

std::vector<std::string> VolumetricResult::to_row() const {
  using monitor::TextTable;
  return {to_string(controller),
          topology_id,
          attack_enabled ? to_string(volumetric) : "baseline",
          std::to_string(flood_packets_injected),
          std::to_string(packet_ins),
          std::to_string(flow_mods_observed),
          std::to_string(flow_mods_rejected),
          std::to_string(table_misses),
          std::to_string(miss_drops),
          std::to_string(table_entries_final),
          std::to_string(table_entries_peak),
          TextTable::num_or_star(probe_mean_rtt_ms(), 3),
          TextTable::num(probe.sent() > 0 ? probe.loss_fraction() * 100.0 : 0.0, 1)};
}

void VolumetricResult::write_json_fields(JsonWriter& w) const {
  w.field("volumetric", to_string(volumetric));
  w.field("topology", topology_id);
  w.field("flood_packets_injected", flood_packets_injected);
  w.field("packet_ins", packet_ins);
  w.field("packet_outs", packet_outs);
  w.field("flow_mods_observed", flow_mods_observed);
  w.field("flow_mods_rejected", flow_mods_rejected);
  w.field("table_misses", table_misses);
  w.field("miss_drops", miss_drops);
  w.field("table_entries_final", table_entries_final);
  w.field("table_entries_peak", table_entries_peak);
  w.key("probe").begin_object();
  w.field("sent", static_cast<std::uint64_t>(probe.sent()));
  w.field("received", static_cast<std::uint64_t>(probe.received()));
  w.field("loss", probe.sent() > 0 ? probe.loss_fraction() : 0.0);
  w.field_or_null("mean_rtt_ms", probe_mean_rtt_ms());
  w.end_object();
}

namespace {

/// Phase A of a volumetric cell: testbed built on the cell's (generated)
/// topology, background probe ping and the 1 s occupancy sampler scripted.
/// The flood itself — kind, flow count, batching, timing — is a fork-time
/// parameter applied by finish(). The schedule must stay in lockstep with
/// volumetric_end() in scenario/run.cpp.
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
    bed_->connect_switches_at(seconds(1));

    const auto& hosts = bed_->model().hosts();
    const topo::HostSpec& src = hosts.front();
    const topo::HostSpec& dst = hosts.back();
    const unsigned trials = static_cast<unsigned>(rep_.flood_duration / kSecond) + 10;
    ping_ = std::make_unique<dpl::PingApp>(bed_->host(src.name), dst.ip, /*icmp_id=*/300);
    sched.at(seconds(3), [this, trials] { ping_->start(trials); });
    end_ = seconds(3) + static_cast<SimTime>(trials) * kSecond + 2 * kSecond;

    // Occupancy sampler: total live entries across the fabric every second.
    // Scripted in the shared prefix so cold and warm runs execute identical
    // event sequences.
    for (SimTime t = seconds(2); t < end_; t += kSecond) {
      sched.at(t, [this] { peak_ = std::max(peak_, total_entries()); });
    }
  }

  void advance_to(SimTime deadline) override { bed_->run_until(deadline); }

  RunResultPtr finish(const RunSpec& cell) override {
    if (cell.attack_enabled) schedule_flood(cell);
    bed_->run_until(end_);

    auto& sched = bed_->scheduler();
    auto result = std::make_unique<VolumetricResult>();
    result->controller = cell.controller;
    result->attack_enabled = cell.attack_enabled;
    result->options = cell.options;
    result->virtual_time = sched.now();
    result->events_executed = sched.events_executed();
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
    result->messages_interposed = bed_->injector().stats().messages_interposed;
    result->messages_suppressed = bed_->injector().stats().messages_suppressed;
    result->codec_ops_saved = bed_->channel_totals().codec_ops_saved;
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

  /// Flood emission: one PacketBatch per (source, interval) event, frames
  /// produced by a template stamper (memcpy + src MAC/IP/port patch, bytes
  /// validated identical to make_tcp + pkt::encode). The prototype is a
  /// fixed TCP SYN, whose flood-varying fields always stamp.
  void emit_flood_batch(swsim::OpenFlowSwitch& sw, std::uint16_t port, std::uint64_t base,
                        std::uint64_t lo, std::uint64_t hi, pkt::MacAddress victim_mac,
                        pkt::Ipv4Address victim_ip) {
    if (!flood_stamper_) {
      pkt::TcpHeader tcp;
      tcp.src_port = 40000;
      tcp.dst_port = 80;
      tcp.flags = pkt::kTcpSyn;
      flood_stamper_.emplace(pkt::make_tcp(pkt::MacAddress::from_u64(0x0aad00000000ULL),
                                           victim_mac, pkt::Ipv4Address{0xc0000000u}, victim_ip,
                                           tcp, /*payload_size=*/0, /*tag=*/0));
    }
    pkt::FrameStamper& st = *flood_stamper_;
    if (!st.can_stamp_src_mac() || !st.can_stamp_src_ip() || !st.can_stamp_src_port()) {
      throw std::logic_error("volumetric flood: TCP SYN prototype is not stampable");
    }
    swsim::PacketBatch batch;
    batch.port = port;
    batch.packets.reserve(hi - lo);
    batch.wires.reserve(hi - lo);
    for (std::uint64_t f = lo; f < hi; ++f) {
      st.set_src_mac(pkt::MacAddress::from_u64(0x0aad00000000ULL | (base + f)));
      st.set_src_ip(pkt::Ipv4Address{static_cast<std::uint32_t>(0xc0000000u + base + f)});
      st.set_src_port(static_cast<std::uint16_t>(40000 + (f & 0x3fff)));
      batch.packets.push_back(st.emit_packet());
      batch.wires.push_back(st.emit_wire());
      ++injected_;
    }
    sw.on_packet_batch(std::move(batch));
  }

  RunSpec rep_;
  std::unique_ptr<Testbed> bed_;
  std::unique_ptr<dpl::PingApp> ping_;
  std::optional<pkt::FrameStamper> flood_stamper_;
  std::uint64_t injected_{0};
  std::uint64_t peak_{0};
  SimTime end_{0};
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

constexpr std::uint8_t kSuppressionTag = 1;
constexpr std::uint8_t kInterruptionTag = 2;
constexpr std::uint8_t kVolumetricTag = 3;

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

// Element counts and enum bytes are checked before use: a corrupt record
// (a journal is a trust boundary) must throw DecodeError, not reserve
// gigabytes or load a value to_json() cannot render.
std::uint32_t load_count(ByteReader& r, std::size_t min_element_bytes) {
  const std::uint32_t count = r.u32();
  if (count > r.remaining() / min_element_bytes) {
    throw DecodeError("load_result: element count " + std::to_string(count) +
                      " exceeds the record");
  }
  return count;
}

ControllerKind load_controller(ByteReader& r) {
  const std::uint8_t byte = r.u8();
  for (const ControllerKind kind : all_controller_kinds()) {
    if (static_cast<std::uint8_t>(kind) == byte) return kind;
  }
  throw DecodeError("load_result: unregistered controller " + std::to_string(byte));
}

VolumetricKind load_volumetric(ByteReader& r) {
  const std::uint8_t byte = r.u8();
  if (byte > static_cast<std::uint8_t>(VolumetricKind::SlowRate)) {
    throw DecodeError("load_result: unknown volumetric kind " + std::to_string(byte));
  }
  return static_cast<VolumetricKind>(byte);
}

void save_trials(ByteWriter& w, const mem::vector<dpl::PingTrial>& trials) {
  w.u32(static_cast<std::uint32_t>(trials.size()));
  for (const dpl::PingTrial& trial : trials) {
    w.u16(trial.seq);
    w.u64(static_cast<std::uint64_t>(trial.sent_at));
    w.u8(trial.rtt.has_value() ? 1 : 0);
    if (trial.rtt) w.u64(static_cast<std::uint64_t>(*trial.rtt));
  }
}

void load_trials(ByteReader& r, mem::vector<dpl::PingTrial>& trials) {
  const std::uint32_t count = load_count(r, /*u16 seq + u64 sent_at + u8 flag*/ 11);
  trials.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    dpl::PingTrial trial;
    trial.seq = r.u16();
    trial.sent_at = static_cast<SimTime>(r.u64());
    if (r.u8() != 0) trial.rtt = static_cast<SimTime>(r.u64());
    trials.push_back(trial);
  }
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

void save_f64(ByteWriter& w, double v) { w.u64(std::bit_cast<std::uint64_t>(v)); }
double load_f64(ByteReader& r) { return std::bit_cast<double>(r.u64()); }

}  // namespace

void save_result(const RunResult& result, ByteWriter& w) {
  if (const auto* s = dynamic_cast<const SuppressionResult*>(&result)) {
    w.u8(kSuppressionTag);
    save_common(result, w);
    save_trials(w, s->ping.trials);
    w.u32(static_cast<std::uint32_t>(s->iperf_mbps.size()));
    for (const double v : s->iperf_mbps) save_f64(w, v);
    w.u64(s->packet_ins);
    w.u64(s->packet_outs);
    w.u64(s->flow_mods_observed);
    w.u64(s->flow_mods_suppressed);
    w.u64(s->data_packets_delivered);
    return;
  }
  if (const auto* i = dynamic_cast<const InterruptionResult*>(&result)) {
    w.u8(kInterruptionTag);
    save_common(result, w);
    w.u8(i->s2_fail_secure ? 1 : 0);
    w.u8(i->ext_to_ext_t30 ? 1 : 0);
    w.u8(i->int_to_ext_t30 ? 1 : 0);
    w.u8(i->ext_to_int_t50 ? 1 : 0);
    w.u8(i->int_to_ext_t95 ? 1 : 0);
    w.u8(i->attack_reached_sigma3 ? 1 : 0);
    return;
  }
  if (const auto* v = dynamic_cast<const VolumetricResult*>(&result)) {
    w.u8(kVolumetricTag);
    save_common(result, w);
    w.u8(static_cast<std::uint8_t>(v->volumetric));
    w.u32(static_cast<std::uint32_t>(v->topology_id.size()));
    w.raw({reinterpret_cast<const std::uint8_t*>(v->topology_id.data()), v->topology_id.size()});
    w.u64(v->flood_packets_injected);
    w.u64(v->packet_ins);
    w.u64(v->packet_outs);
    w.u64(v->flow_mods_observed);
    w.u64(v->flow_mods_rejected);
    w.u64(v->table_misses);
    w.u64(v->miss_drops);
    w.u64(v->table_entries_final);
    w.u64(v->table_entries_peak);
    save_trials(w, v->probe.trials);
    return;
  }
  throw std::invalid_argument("save_result: unsupported result type: " + result.kind_name());
}

RunResultPtr load_result(ByteReader& r) {
  const std::uint8_t tag = r.u8();
  switch (tag) {
    case kSuppressionTag: {
      auto s = std::make_unique<SuppressionResult>();
      load_common(*s, r);
      load_trials(r, s->ping.trials);
      const std::uint32_t mbps = load_count(r, sizeof(std::uint64_t));
      s->iperf_mbps.reserve(mbps);
      for (std::uint32_t i = 0; i < mbps; ++i) s->iperf_mbps.push_back(load_f64(r));
      s->packet_ins = r.u64();
      s->packet_outs = r.u64();
      s->flow_mods_observed = r.u64();
      s->flow_mods_suppressed = r.u64();
      s->data_packets_delivered = r.u64();
      return s;
    }
    case kInterruptionTag: {
      auto i = std::make_unique<InterruptionResult>();
      load_common(*i, r);
      i->s2_fail_secure = r.u8() != 0;
      i->ext_to_ext_t30 = r.u8() != 0;
      i->int_to_ext_t30 = r.u8() != 0;
      i->ext_to_int_t50 = r.u8() != 0;
      i->int_to_ext_t95 = r.u8() != 0;
      i->attack_reached_sigma3 = r.u8() != 0;
      return i;
    }
    case kVolumetricTag: {
      auto v = std::make_unique<VolumetricResult>();
      load_common(*v, r);
      v->volumetric = load_volumetric(r);
      const auto id_bytes = r.view(load_count(r, 1));
      v->topology_id.assign(id_bytes.begin(), id_bytes.end());
      v->flood_packets_injected = r.u64();
      v->packet_ins = r.u64();
      v->packet_outs = r.u64();
      v->flow_mods_observed = r.u64();
      v->flow_mods_rejected = r.u64();
      v->table_misses = r.u64();
      v->miss_drops = r.u64();
      v->table_entries_final = r.u64();
      v->table_entries_peak = r.u64();
      load_trials(r, v->probe.trials);
      return v;
    }
    default:
      throw DecodeError("load_result: unknown result tag " + std::to_string(tag));
  }
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
