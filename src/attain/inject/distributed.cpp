#include "attain/inject/distributed.hpp"

#include "common/log.hpp"
#include "ofp/codec.hpp"

namespace attain::inject {

std::string to_string(Coordination mode) {
  return mode == Coordination::TotalOrder ? "total-order" : "local-replicas";
}

DistributedInjector::DistributedInjector(sim::Scheduler& sched, const topo::SystemModel& system,
                                         monitor::Monitor& monitor, unsigned shard_count,
                                         Coordination mode, SimTime coordination_latency,
                                         std::uint64_t seed)
    : sched_(sched),
      system_(system),
      monitor_(monitor),
      shard_count_(shard_count == 0 ? 1 : shard_count),
      mode_(mode),
      coordination_latency_(coordination_latency),
      rng_(seed) {}

void DistributedInjector::attach_connection(ConnectionId id, chan::EnvelopeSink to_controller,
                                            chan::EnvelopeSink to_switch) {
  if (!system_.has_control_connection(id)) {
    throw topo::ModelError("attach_connection: connection not in N_C");
  }
  bool tls = false;
  for (const topo::ControlConnSpec& spec : system_.control_connections()) {
    if (spec.id == id) tls = spec.tls;
  }
  endpoints_[id] = Endpoint{std::move(to_controller), std::move(to_switch), tls};
}

chan::EnvelopeSink DistributedInjector::switch_side_input(ConnectionId id) {
  return [this, id](chan::Envelope&& envelope) {
    on_envelope(id, chan::Direction::SwitchToController, std::move(envelope));
  };
}

void DistributedInjector::arm(const dsl::CompiledAttack& attack,
                              const model::CapabilityMap& capabilities) {
  executors_.clear();
  const unsigned replicas = mode_ == Coordination::TotalOrder ? 1 : shard_count_;
  for (unsigned i = 0; i < replicas; ++i) {
    executors_.push_back(std::make_unique<AttackExecutor>(attack, capabilities, monitor_, rng_));
  }
  ATTAIN_LOG(Info, "dist-injector") << "armed '" << attack.name << "' in " << to_string(mode_)
                                    << " mode across " << shard_count_ << " shards";
}

std::optional<std::string> DistributedInjector::current_state_of_shard(unsigned shard) const {
  if (executors_.empty()) return std::nullopt;
  if (mode_ == Coordination::TotalOrder) return executors_.front()->current_state_name();
  return executors_.at(shard)->current_state_name();
}

void DistributedInjector::on_envelope(ConnectionId id, chan::Direction direction,
                                      chan::Envelope&& envelope) {
  const auto endpoint = endpoints_.find(id);
  if (endpoint == endpoints_.end()) return;
  ++stats_.messages_interposed;
  if (endpoint->second.tls && !envelope.sealed()) envelope.seal();

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
  msg.tls = endpoint->second.tls;

  {
    monitor::Event event;
    event.kind = monitor::EventKind::MessageObserved;
    event.time = msg.timestamp;
    event.connection = id;
    event.direction = direction;
    event.message_id = msg.id;
    if (const ofp::Message* payload = msg.payload()) event.message_type = payload->type();
    event.length = msg.length();
    monitor_.record(std::move(event));
  }

  if (executors_.empty()) {
    deliver(OutMessage{std::move(msg), 0}, 0);
    return;
  }

  if (mode_ == Coordination::TotalOrder) {
    // Shard -> sequencer hop; the scheduler's FIFO tie-breaking at the
    // sequencer is the total order. The verdict pays the return hop.
    ++stats_.sequencer_round_trips;
    stats_.coordination_delay_total += 2 * coordination_latency_;
    auto shared = std::make_shared<lang::InFlightMessage>(std::move(msg));
    sched_.after(coordination_latency_, [this, shared] {
      execute_and_deliver(*executors_.front(), std::move(*shared), coordination_latency_);
    });
  } else {
    execute_and_deliver(*executors_[shard_of(id)], std::move(msg), 0);
  }
}

void DistributedInjector::execute_and_deliver(AttackExecutor& executor,
                                              lang::InFlightMessage&& msg,
                                              SimTime extra_delivery_delay) {
  ExecutionResult result = executor.process(std::move(msg));
  for (OutMessage& out : result.outgoing) {
    deliver(std::move(out), extra_delivery_delay);
  }
}

void DistributedInjector::deliver(OutMessage&& out, SimTime extra_delay) {
  lang::InFlightMessage& msg = out.message;
  ConnectionId conn = msg.connection;
  if (msg.direction == chan::Direction::ControllerToSwitch) {
    if (msg.destination != conn.sw) conn.sw = msg.destination;
  } else {
    if (msg.destination != conn.controller) conn.controller = msg.destination;
  }
  auto do_send = [this, conn, direction = msg.direction,
                  envelope = std::move(msg.envelope)]() mutable {
    const auto ep = endpoints_.find(conn);
    if (ep == endpoints_.end()) return;
    ++stats_.messages_delivered;
    if (direction == chan::Direction::ControllerToSwitch) {
      if (ep->second.to_switch) ep->second.to_switch(std::move(envelope));
    } else {
      if (ep->second.to_controller) ep->second.to_controller(std::move(envelope));
    }
  };
  const SimTime delay = out.delay + extra_delay;
  if (delay > 0) {
    sched_.after(delay, std::move(do_send));
  } else {
    do_send();
  }
}

}  // namespace attain::inject
