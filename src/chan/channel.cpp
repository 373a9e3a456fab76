#include "chan/channel.hpp"

namespace attain::chan {

void DirectionCounters::add(const DirectionCounters& other) {
  frames += other.frames;
  forwarded += other.forwarded;
  suppressed += other.suppressed;
  decode_errors += other.decode_errors;
  codec_ops_saved += other.codec_ops_saved;
}

void DirectionCounters::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("frames", frames);
  w.field("forwarded", forwarded);
  w.field("suppressed", suppressed);
  w.field("decode_errors", decode_errors);
  w.field("codec_ops_saved", codec_ops_saved);
  w.end_object();
}

void TraceRing::push(TraceEntry entry) {
  ++total_;
  if (capacity_ == 0) return;
  if (entries_.size() < capacity_) {
    entries_.push_back(std::move(entry));
    return;
  }
  entries_[head_] = std::move(entry);
  head_ = (head_ + 1) % capacity_;
}

std::vector<TraceEntry> TraceRing::snapshot() const {
  std::vector<TraceEntry> out;
  out.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out.push_back(entries_[(head_ + i) % entries_.size()]);
  }
  return out;
}

void TraceRing::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("capacity", static_cast<std::uint64_t>(capacity_));
  w.field("dropped", dropped());
  w.key("entries").begin_array();
  for (const TraceEntry& entry : snapshot()) {
    w.begin_object();
    w.field("t_us", static_cast<std::int64_t>(entry.time));
    w.field("dir", to_string(entry.direction));
    if (entry.type.has_value()) {
      w.field("type", ofp::to_string(*entry.type));
    } else {
      w.key("type").null();
    }
    w.field("xid", static_cast<std::uint64_t>(entry.xid));
    w.field("len", static_cast<std::uint64_t>(entry.length));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

Channel::Channel(sim::Scheduler& sched, ChannelConfig config)
    : sched_(sched),
      config_(std::move(config)),
      switch_to_proxy_(sched, config_.segment),
      proxy_to_switch_(sched, config_.segment),
      controller_to_proxy_(sched, config_.segment),
      proxy_to_controller_(sched, config_.segment),
      trace_(config_.trace_capacity) {
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
    TraceEntry entry;
    entry.time = sched_.now();
    entry.direction = direction;
    if (const ofp::Message* message = envelope.message()) {
      entry.type = message->type();
      entry.xid = message->xid;
    }
    entry.length = envelope.wire_size();
    trace_.push(entry);
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

void Channel::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("name", config_.name);
  w.field("tls", config_.tls);
  w.key("switch_to_controller");
  counters(Direction::SwitchToController).write_json(w);
  w.key("controller_to_switch");
  counters(Direction::ControllerToSwitch).write_json(w);
  w.key("trace");
  trace_.write_json(w);
  w.end_object();
}

std::string Channel::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

}  // namespace attain::chan
