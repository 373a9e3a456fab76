#include "attain/inject/proxy.hpp"

#include "common/log.hpp"
#include "ofp/codec.hpp"

namespace attain::inject {

RuntimeInjector::RuntimeInjector(sim::Scheduler& sched, const topo::SystemModel& system,
                                 monitor::Monitor& monitor, std::uint64_t fuzz_seed)
    : sched_(sched), system_(system), monitor_(monitor), rng_(fuzz_seed) {}

void RuntimeInjector::attach_connection(ConnectionId id, chan::EnvelopeSink to_controller,
                                        chan::EnvelopeSink to_switch) {
  if (!system_.has_control_connection(id)) {
    throw topo::ModelError("attach_connection: (" + system_.name_of(id.controller) + "," +
                           system_.name_of(id.sw) + ") is not in N_C");
  }
  bool tls = false;
  for (const topo::ControlConnSpec& spec : system_.control_connections()) {
    if (spec.id == id) tls = spec.tls;
  }
  Endpoint& endpoint = endpoints_[id];
  endpoint = Endpoint{};
  endpoint.to_controller = std::move(to_controller);
  endpoint.to_switch = std::move(to_switch);
  endpoint.tls = tls;
  for (const chan::Direction direction :
       {chan::Direction::SwitchToController, chan::Direction::ControllerToSwitch}) {
    endpoint.observed[static_cast<unsigned>(direction)] = &monitor_.observed_cell(id, direction);
  }
  if (executor_) endpoint.guards = executor_->guard_summaries(id);

  monitor::Event event;
  event.kind = monitor::EventKind::ConnectionAttached;
  event.time = sched_.now();
  event.connection = id;
  event.detail = tls ? "tls" : "tcp";
  monitor_.record(std::move(event));
}

void RuntimeInjector::attach_channel(chan::Channel& channel, ConnectionId id) {
  attach_connection(
      id,
      /*to_controller=*/
      [ch = &channel](chan::Envelope&& e) {
        ch->forward(chan::Direction::SwitchToController, std::move(e));
      },
      /*to_switch=*/
      [ch = &channel](chan::Envelope&& e) {
        ch->forward(chan::Direction::ControllerToSwitch, std::move(e));
      });
  // The sink holds its endpoint instead of looking it up per frame.
  Endpoint& endpoint = endpoints_[id];
  endpoint.channel = &channel;
  channel.set_proxy_sink(
      [this, id, &endpoint](chan::Direction direction, chan::Envelope&& envelope) {
        interpose(id, endpoint, direction, std::move(envelope));
      });
}

chan::EnvelopeSink RuntimeInjector::switch_side_input(ConnectionId id) {
  return [this, id](chan::Envelope&& envelope) {
    on_envelope(id, chan::Direction::SwitchToController, std::move(envelope));
  };
}

chan::EnvelopeSink RuntimeInjector::controller_side_input(ConnectionId id) {
  return [this, id](chan::Envelope&& envelope) {
    on_envelope(id, chan::Direction::ControllerToSwitch, std::move(envelope));
  };
}

void RuntimeInjector::arm(const dsl::CompiledAttack& attack,
                          const model::CapabilityMap& capabilities) {
  executor_ = std::make_unique<AttackExecutor>(attack, capabilities, monitor_, rng_);
  executor_->set_use_compiled(use_compiled_);
  for (auto& [id, endpoint] : endpoints_) endpoint.guards = executor_->guard_summaries(id);
  ATTAIN_LOG(Info, "injector") << "armed attack '" << attack.name << "' at state "
                               << executor_->current_state_name();
}

void RuntimeInjector::disarm() {
  executor_.reset();
  for (auto& entry : endpoints_) entry.second.guards = {};
}

void RuntimeInjector::set_syscmd_handler(
    std::function<void(const std::string&, const std::string&)> handler) {
  syscmd_handler_ = std::move(handler);
}

std::optional<std::string> RuntimeInjector::current_state() const {
  if (!executor_) return std::nullopt;
  return executor_->current_state_name();
}

lang::InFlightMessage RuntimeInjector::make_in_flight(ConnectionId id, chan::Direction direction,
                                                      chan::Envelope&& envelope, bool tls) {
  lang::InFlightMessage msg;
  msg.connection = id;
  msg.direction = direction;
  if (direction == chan::Direction::SwitchToController) {
    msg.source = id.sw;
    msg.destination = id.controller;
  } else {
    msg.source = id.controller;
    msg.destination = id.sw;
  }
  msg.timestamp = sched_.now();
  msg.id = next_message_id_++;
  msg.envelope = std::move(envelope);
  msg.tls = tls;
  return msg;
}

void RuntimeInjector::on_envelope(ConnectionId id, chan::Direction direction,
                                  chan::Envelope&& envelope) {
  const auto endpoint = endpoints_.find(id);
  if (endpoint == endpoints_.end()) return;  // connection never attached
  interpose(id, endpoint->second, direction, std::move(envelope));
}

void RuntimeInjector::interpose(ConnectionId id, const Endpoint& endpoint,
                                chan::Direction direction, chan::Envelope&& envelope) {
  ++stats_.messages_interposed;
  // The interposer cannot read ciphertext: seal before any rule runs (the
  // channel already sealed if the frame travelled one; the side-input path
  // seals here).
  if (endpoint.tls && !envelope.sealed()) envelope.seal();
  const ofp::Message* payload = envelope.message();
  const std::optional<ofp::MsgType> type =
      payload != nullptr ? std::optional<ofp::MsgType>(payload->type()) : std::nullopt;

  const bool counters_only = monitor_.counters_only();
  if (counters_only) {
    monitor_.tally_observed(type, *endpoint.observed[static_cast<unsigned>(direction)]);
  } else {
    monitor::Event event;
    event.kind = monitor::EventKind::MessageObserved;
    event.time = sched_.now();
    event.connection = id;
    event.direction = direction;
    event.message_id = next_message_id_;
    event.message_type = type;
    event.length = envelope.wire_size();
    monitor_.record(std::move(event));
  }

  // Counter-only branch: nothing is stored, nothing is queued, and no armed
  // rule's guard admits the frame, so the executor path below would deliver
  // it unchanged. Tally what that path would have tallied and deliver.
  if (counters_only && sched_.now() >= paused_until_ &&
      (!executor_ || executor_->try_guard_skip(endpoint.guards, direction, type))) {
    ++next_message_id_;  // the id this frame would have been assigned
    ++stats_.messages_delivered;
    monitor_.tally(monitor::EventKind::MessageForwarded);
    endpoint.send(direction, std::move(envelope));
    return;
  }

  lang::InFlightMessage msg = make_in_flight(id, direction, std::move(envelope), endpoint.tls);
  if (sched_.now() < paused_until_) {
    // A SLEEP() is in effect: queue behind it, order preserved by the
    // scheduler's FIFO tie-breaking.
    auto shared = std::make_shared<lang::InFlightMessage>(std::move(msg));
    sched_.at(paused_until_, [this, ep = &endpoint, shared] {
      process_now(*ep, std::move(*shared));
    });
    return;
  }
  process_now(endpoint, std::move(msg));
}

void RuntimeInjector::process_now(const Endpoint& endpoint, lang::InFlightMessage&& msg) {
  if (!executor_) {
    // Disarmed: pure proxy.
    deliver(OutMessage{std::move(msg), 0});
    return;
  }
  const chan::Direction direction = msg.direction;
  ExecutionResult result = executor_->process(std::move(msg));
  if (result.sleep > 0) {
    paused_until_ = std::max(paused_until_, sched_.now() + result.sleep);
  }
  for (const SysCmdCall& call : result.syscmds) {
    ++stats_.syscmds_executed;
    if (syscmd_handler_) syscmd_handler_(call.host, call.command);
  }
  const std::uint64_t before = stats_.messages_delivered;
  for (OutMessage& out : result.outgoing) {
    deliver(std::move(out));
  }
  if (stats_.messages_delivered == before) {
    ++stats_.messages_suppressed;
    if (endpoint.channel != nullptr) endpoint.channel->note_suppressed(direction);
  }
}

void RuntimeInjector::deliver(OutMessage&& out) {
  lang::InFlightMessage& msg = out.message;

  // Resolve the carrying connection: a redirect may have retargeted the
  // message at a different switch/controller; find the matching attached
  // connection.
  ConnectionId conn = msg.connection;
  if (msg.direction == chan::Direction::ControllerToSwitch) {
    if (msg.destination != conn.sw) conn.sw = msg.destination;
  } else {
    if (msg.destination != conn.controller) conn.controller = msg.destination;
  }
  const auto endpoint = endpoints_.find(conn);
  if (endpoint == endpoints_.end()) {
    ++stats_.undeliverable;
    if (monitor_.wants(monitor::EventKind::EvalError)) {
      monitor::Event event;
      event.kind = monitor::EventKind::EvalError;
      event.time = sched_.now();
      event.connection = msg.connection;
      event.detail = "undeliverable: no attached connection for redirect target";
      monitor_.record(std::move(event));
    }
    return;
  }

  auto do_send = [this, conn, ep = &endpoint->second, direction = msg.direction,
                  envelope = std::move(msg.envelope)]() mutable {
    ++stats_.messages_delivered;
    if (monitor_.wants(monitor::EventKind::MessageForwarded)) {
      monitor::Event event;
      event.kind = monitor::EventKind::MessageForwarded;
      event.time = sched_.now();
      event.connection = conn;
      event.direction = direction;
      if (const ofp::Message* payload = envelope.message()) event.message_type = payload->type();
      event.length = envelope.wire_size();
      monitor_.record(std::move(event));
    }
    ep->send(direction, std::move(envelope));
  };

  if (out.delay > 0) {
    sched_.after(out.delay, std::move(do_send));
  } else {
    do_send();
  }
}

}  // namespace attain::inject
