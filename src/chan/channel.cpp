#include "chan/channel.hpp"

namespace attain::chan {

void DirectionCounters::add(const DirectionCounters& other) {
  frames += other.frames;
  forwarded += other.forwarded;
  suppressed += other.suppressed;
  decode_errors += other.decode_errors;
  codec_ops_saved += other.codec_ops_saved;
}

Channel::Channel(sim::Scheduler& sched, ChannelConfig config)
    : sched_(sched),
      config_(std::move(config)),
      switch_to_proxy_(sched, config_.segment),
      proxy_to_switch_(sched, config_.segment),
      controller_to_proxy_(sched, config_.segment),
      proxy_to_controller_(sched, config_.segment) {
  // All four hops deliver in bursts: flood-shaped traffic — many sends
  // sharing a zero-serialize delivery instant — crosses each hop as one
  // event per burst, and a lone frame is a burst of one.
  switch_to_proxy_.set_batch_receiver([this](EnvelopeBatch& batch) {
    arrive_at_proxy_batch(Direction::SwitchToController, batch);
  });
  controller_to_proxy_.set_batch_receiver([this](EnvelopeBatch& batch) {
    arrive_at_proxy_batch(Direction::ControllerToSwitch, batch);
  });
  proxy_to_switch_.set_batch_receiver([this](EnvelopeBatch& batch) {
    deliver_batch(Direction::ControllerToSwitch, batch);
  });
  proxy_to_controller_.set_batch_receiver([this](EnvelopeBatch& batch) {
    deliver_batch(Direction::SwitchToController, batch);
  });
}

void Channel::send_from_switch(Envelope&& envelope) {
  ++dir_counters(Direction::SwitchToController).frames;
  const std::size_t size = envelope.wire_size();
  switch_to_proxy_.send(std::move(envelope), size);
}

void Channel::send_from_controller(Envelope&& envelope) {
  ++dir_counters(Direction::ControllerToSwitch).frames;
  const std::size_t size = envelope.wire_size();
  controller_to_proxy_.send(std::move(envelope), size);
}

EnvelopeSink Channel::switch_sender() {
  return [this](Envelope&& e) { send_from_switch(std::move(e)); };
}

EnvelopeSink Channel::controller_sender() {
  return [this](Envelope&& e) { send_from_controller(std::move(e)); };
}

void Channel::arrive_at_proxy_batch(Direction direction, EnvelopeBatch& batch) {
  DirectionCounters& counters = dir_counters(direction);
  for (sim::BatchItem<Envelope>& item : batch) {
    Envelope& envelope = item.payload;
    if (config_.tls && !envelope.sealed()) envelope.seal();
    if (!envelope.sealed()) {
      // The byte pipeline decoded every readable frame here; a cached view
      // makes that a no-op, a raw-wire frame decodes exactly once.
      if (envelope.has_message()) {
        ++counters.codec_ops_saved;
      } else if (envelope.message() == nullptr && envelope.has_wire()) {
        ++counters.decode_errors;
      }
    }
    if (proxy_sink_) {
      proxy_sink_(direction, std::move(envelope));
    } else {
      forward(direction, std::move(envelope));
    }
  }
}

void Channel::forward(Direction direction, Envelope&& envelope) {
  ++dir_counters(direction).forwarded;
  const std::size_t size = envelope.wire_size();
  if (direction == Direction::SwitchToController) {
    proxy_to_controller_.send(std::move(envelope), size);
  } else {
    proxy_to_switch_.send(std::move(envelope), size);
  }
}

void Channel::note_suppressed(Direction direction) {
  ++dir_counters(direction).suppressed;
}

void Channel::deliver(Direction direction, Envelope&& envelope) {
  envelope.unseal();
  if (envelope.has_message()) {
    // The endpoint consumes the cached view instead of re-decoding.
    ++dir_counters(direction).codec_ops_saved;
  }
  EnvelopeSink& sink =
      direction == Direction::SwitchToController ? controller_sink_ : switch_sink_;
  if (sink) sink(std::move(envelope));
}

void Channel::deliver_batch(Direction direction, EnvelopeBatch& batch) {
  for (sim::BatchItem<Envelope>& item : batch) {
    deliver(direction, std::move(item.payload));
  }
}

DirectionCounters Channel::totals() const {
  DirectionCounters sum;
  for (const DirectionCounters& c : counters_) sum.add(c);
  return sum;
}

}  // namespace attain::chan
