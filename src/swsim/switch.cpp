#include "swsim/switch.hpp"

#include "common/log.hpp"
#include "packet/codec.hpp"

namespace attain::swsim {

OpenFlowSwitch::OpenFlowSwitch(sim::Scheduler& sched, SwitchConfig config)
    : sched_(sched), config_(std::move(config)) {
  table_.set_capacity(config_.table_capacity);
}

void OpenFlowSwitch::set_control_sender(chan::EnvelopeSink send_control) {
  send_control_ = std::move(send_control);
}

void OpenFlowSwitch::set_packet_sender(std::function<void(std::uint16_t, pkt::Packet)> send_packet) {
  send_packet_ = std::move(send_packet);
}

bool OpenFlowSwitch::in_standalone_mode() const {
  return state_ != ChannelState::Connected && !config_.fail_secure;
}

void OpenFlowSwitch::connect() {
  state_ = ChannelState::HandshakePending;
  echo_misses_ = 0;
  echo_outstanding_ = false;
  send_message(ofp::make_message(next_xid(), ofp::Hello{}));
  schedule_echo();
  schedule_expiry();
}

void OpenFlowSwitch::send_message(ofp::Message msg) {
  if (!send_control_) return;
  ++counters_.control_tx;
  send_control_(chan::Envelope(std::move(msg)));  // typed; wire bytes encode only if read
}

void OpenFlowSwitch::on_control_envelope(chan::Envelope&& envelope) {
  ++counters_.control_rx;
  const ofp::Message* msg =
      chan::ingress_decode(envelope, config_.name, counters_.decode_errors);
  if (msg == nullptr) {
    ofp::Error reply;
    reply.type = ofp::ErrorType::BadRequest;
    reply.code = 0;
    send_message(ofp::make_message(next_xid(), std::move(reply)));
    return;
  }
  handle_message(*msg);
}

void OpenFlowSwitch::handle_message(const ofp::Message& msg) {
  using ofp::MsgType;
  switch (msg.type()) {
    case MsgType::Hello:
      // Controller's HELLO; reply with FEATURES once asked. Connection is
      // usable after FEATURES exchange.
      break;
    case MsgType::FeaturesRequest: {
      ofp::FeaturesReply reply;
      reply.datapath_id = config_.dpid;
      reply.n_buffers = config_.buffer_capacity;
      reply.n_tables = 1;
      for (std::uint16_t p = 1; p <= config_.num_ports; ++p) {
        ofp::PhyPort port;
        port.port_no = p;
        port.hw_addr = pkt::MacAddress::from_u64((config_.dpid << 8) | p);
        port.name = config_.name + "-eth" + std::to_string(p);
        reply.ports.push_back(std::move(port));
      }
      send_message(ofp::Message{msg.xid, std::move(reply)});
      state_ = ChannelState::Connected;
      echo_misses_ = 0;
      ATTAIN_LOG(Info, config_.name) << "OpenFlow channel connected";
      break;
    }
    case MsgType::GetConfigRequest: {
      ofp::GetConfigReply reply;
      reply.miss_send_len = config_.miss_send_len;
      send_message(ofp::Message{msg.xid, std::move(reply)});
      break;
    }
    case MsgType::SetConfig:
      config_.miss_send_len = msg.as<ofp::SetConfig>().miss_send_len;
      break;
    case MsgType::EchoRequest:
      send_message(ofp::Message{msg.xid, ofp::EchoReply{msg.as<ofp::EchoRequest>().data}});
      break;
    case MsgType::EchoReply:
      echo_outstanding_ = false;
      echo_misses_ = 0;
      break;
    case MsgType::FlowMod:
      handle_flow_mod(msg.xid, msg.as<ofp::FlowMod>());
      break;
    case MsgType::PacketOut:
      handle_packet_out(msg.as<ofp::PacketOut>());
      break;
    case MsgType::BarrierRequest:
      send_message(ofp::Message{msg.xid, ofp::BarrierReply{}});
      break;
    case MsgType::StatsRequest:
      handle_stats_request(msg.xid, msg.as<ofp::StatsRequest>());
      break;
    case MsgType::PortMod:
    case MsgType::Vendor:
    case MsgType::Error:
      break;  // accepted, no behaviour modelled
    default: {
      ofp::Error reply;
      reply.type = ofp::ErrorType::BadRequest;
      reply.code = 1;  // OFPBRC_BAD_TYPE
      send_message(ofp::make_message(next_xid(), std::move(reply)));
      break;
    }
  }
}

void OpenFlowSwitch::handle_flow_mod(std::uint32_t xid, const ofp::FlowMod& mod) {
  ++counters_.flow_mods_applied;
  const std::uint64_t rejected_before = table_.adds_rejected();
  for (const ExpiredEntry& removed : table_.apply(mod, sched_.now())) {
    if ((removed.entry.flags & ofp::kFlowModSendFlowRem) != 0) send_flow_removed(removed);
  }
  if (table_.adds_rejected() != rejected_before) {
    ++counters_.flow_mods_rejected;
    ofp::Error reply;
    reply.type = ofp::ErrorType::FlowModFailed;
    reply.code = 0;  // OFPFMFC_ALL_TABLES_FULL
    send_message(ofp::make_message(xid, std::move(reply)));
  }
  // A FLOW_MOD carrying a buffer id also releases the buffered packet
  // through the new actions (this is the POX l2_learning idiom whose
  // suppression yields the Fig. 11 denial of service).
  if (mod.buffer_id != ofp::kNoBuffer) {
    const auto it = buffers_.find(mod.buffer_id);
    if (it != buffers_.end()) {
      const Buffered buffered = it->second;
      buffers_.erase(it);
      if (mod.command == ofp::FlowModCommand::Add ||
          mod.command == ofp::FlowModCommand::Modify ||
          mod.command == ofp::FlowModCommand::ModifyStrict) {
        apply_actions(mod.actions, buffered.packet, buffered.in_port);
      }
    }
  }
}

void OpenFlowSwitch::handle_packet_out(const ofp::PacketOut& out) {
  ++counters_.packet_outs_applied;
  pkt::Packet packet;
  std::uint16_t in_port = out.in_port;
  if (out.buffer_id != ofp::kNoBuffer) {
    const auto it = buffers_.find(out.buffer_id);
    if (it == buffers_.end()) return;  // stale reference
    packet = it->second.packet;
    if (in_port == static_cast<std::uint16_t>(ofp::Port::None)) in_port = it->second.in_port;
    buffers_.erase(it);
  } else {
    if (out.data.empty()) return;
    std::optional<pkt::Packet> view = out.data.packet();
    if (!view) {
      ++counters_.decode_errors;
      return;
    }
    packet = std::move(*view);
  }
  apply_actions(out.actions, std::move(packet), in_port);
}

void OpenFlowSwitch::handle_stats_request(std::uint32_t xid, const ofp::StatsRequest& req) {
  ofp::StatsReply reply;
  switch (req.stats_type()) {
    case ofp::StatsType::Desc: {
      ofp::DescStats desc;
      desc.mfr_desc = "ATTAIN reproduction";
      desc.hw_desc = "simulated datapath";
      desc.sw_desc = "swsim";
      desc.serial_num = std::to_string(config_.dpid);
      desc.dp_desc = config_.name;
      reply.body = std::move(desc);
      break;
    }
    case ofp::StatsType::Flow: {
      const auto& body = std::get<ofp::FlowStatsRequest>(req.body);
      std::vector<ofp::FlowStatsEntry> entries;
      for (const FlowEntry* e : table_.entries()) {
        if (!body.match.subsumes(e->match)) continue;
        ofp::FlowStatsEntry out;
        out.match = e->match;
        out.priority = e->priority;
        out.idle_timeout = e->idle_timeout;
        out.hard_timeout = e->hard_timeout;
        out.cookie = e->cookie;
        out.packet_count = e->packet_count;
        out.byte_count = e->byte_count;
        out.duration_sec =
            static_cast<std::uint32_t>((sched_.now() - e->installed_at) / kSecond);
        out.actions = e->actions;
        entries.push_back(std::move(out));
      }
      reply.body = std::move(entries);
      break;
    }
    case ofp::StatsType::Aggregate: {
      const auto& body = std::get<ofp::AggregateStatsRequest>(req.body);
      ofp::AggregateStats agg;
      for (const FlowEntry* e : table_.entries()) {
        if (!body.match.subsumes(e->match)) continue;
        agg.packet_count += e->packet_count;
        agg.byte_count += e->byte_count;
        ++agg.flow_count;
      }
      reply.body = agg;
      break;
    }
    case ofp::StatsType::Port: {
      std::vector<ofp::PortStatsEntry> entries;
      ofp::PortStatsEntry e;
      e.port_no = static_cast<std::uint16_t>(ofp::Port::None);
      e.rx_packets = counters_.packets_in;
      e.tx_packets = counters_.packets_forwarded;
      entries.push_back(e);
      reply.body = std::move(entries);
      break;
    }
    default:
      return;
  }
  send_message(ofp::Message{xid, std::move(reply)});
}

void OpenFlowSwitch::apply_actions(const ofp::ActionList& actions, pkt::Packet packet,
                                   std::uint16_t in_port) {
  for (const ofp::Action& action : actions) {
    if (const auto* out = std::get_if<ofp::ActionOutput>(&action)) {
      output_packet(out->port, packet, in_port);
    } else if (const auto* enq = std::get_if<ofp::ActionEnqueue>(&action)) {
      output_packet(enq->port, packet, in_port);
    } else {
      ofp::apply_rewrite(action, packet);
    }
  }
}

void OpenFlowSwitch::output_packet(std::uint16_t out_port, const pkt::Packet& packet,
                                   std::uint16_t in_port) {
  using ofp::Port;
  // OF1.0 forbids sending back out the ingress port unless explicitly
  // requested through OFPP_IN_PORT.
  bool allow_in_port = false;
  switch (static_cast<Port>(out_port)) {
    case Port::Flood:
    case Port::All:
      flood(packet, static_cast<Port>(out_port) == Port::All ? 0 : in_port);
      return;
    case Port::InPort:
      out_port = in_port;
      allow_in_port = true;
      break;
    case Port::Controller: {
      table_miss(packet, in_port);  // deliver to controller as PACKET_IN(action)
      return;
    }
    case Port::Table: {
      const FlowEntry* entry =
          table_.match_packet(packet, in_port, sched_.now(), packet.wire_size());
      if (entry != nullptr) apply_actions(entry->actions, packet, in_port);
      return;
    }
    case Port::None:
      return;
    default:
      break;
  }
  if (out_port == 0 || out_port > config_.num_ports) return;
  if (out_port == in_port && !allow_in_port) return;
  if (down_ports_.contains(out_port)) return;
  ++counters_.packets_forwarded;
  if (send_packet_) send_packet_(out_port, packet);
}

void OpenFlowSwitch::flood(const pkt::Packet& packet, std::uint16_t except_port) {
  for (std::uint16_t p = 1; p <= config_.num_ports; ++p) {
    if (p == except_port || down_ports_.contains(p)) continue;
    ++counters_.packets_forwarded;
    if (send_packet_) send_packet_(p, packet);
  }
}

void OpenFlowSwitch::set_port_up(std::uint16_t port, bool up) {
  if (port == 0 || port > config_.num_ports) return;
  const bool was_up = !down_ports_.contains(port);
  if (up == was_up) return;
  if (up) {
    down_ports_.erase(port);
  } else {
    down_ports_.insert(port);
  }
  ofp::PortStatus status;
  status.reason = ofp::PortReason::Modify;
  status.desc.port_no = port;
  status.desc.hw_addr = pkt::MacAddress::from_u64((config_.dpid << 8) | port);
  status.desc.name = config_.name + "-eth" + std::to_string(port);
  status.desc.state = up ? 0 : 1;  // OFPPS_LINK_DOWN
  send_message(ofp::make_message(next_xid(), std::move(status)));
}

void OpenFlowSwitch::on_packet(std::uint16_t port, pkt::Packet packet) {
  ++counters_.packets_in;
  // Fast path: the 12-tuple key is extracted exactly once per packet; the
  // classifier never re-parses the header chain per entry.
  const pkt::FlowKey key = pkt::FlowKey::from_packet(packet, port);
  const FlowEntry* entry = table_.match_packet(key, sched_.now(), packet.wire_size());
  if (entry != nullptr) {
    apply_actions(entry->actions, std::move(packet), port);
    return;
  }
  ++counters_.table_misses;
  if (state_ == ChannelState::Connected) {
    table_miss(packet, port);
  } else if (config_.fail_secure) {
    ++counters_.miss_drops;
  } else {
    standalone_forward(packet, port);
  }
}

void OpenFlowSwitch::table_miss(const pkt::Packet& packet, std::uint16_t in_port) {
  // Buffering decision first: buffer id, then the shipped data region (miss_send_len-truncated when buffered, the
  // whole frame when the pool is exhausted), then the xid. The frame is
  // typed: its bytes are encoded only if something on the path reads them.
  ofp::PacketIn pin;  // buffer_id kNoBuffer, reason NoMatch
  pin.in_port = in_port;
  pin.total_len = static_cast<std::uint16_t>(pkt::encoded_size(packet));
  std::size_t cap = pkt::Frame::kWhole;
  if (buffers_.size() < config_.buffer_capacity) {
    pin.buffer_id = next_buffer_id_++;
    buffers_[pin.buffer_id] = Buffered{packet, in_port, sched_.now()};
    cap = config_.miss_send_len;
  }
  ++counters_.packet_in_sent;
  pin.data = pkt::Frame(packet, cap);
  send_message(ofp::make_message(next_xid(), std::move(pin)));
}

void OpenFlowSwitch::standalone_forward(const pkt::Packet& packet, std::uint16_t in_port) {
  // Fail-safe fallback: behave as an autonomous learning switch, exactly
  // what OVS standalone mode does after `max_backoff` with no controller.
  ++counters_.standalone_forwards;
  standalone_macs_[packet.eth.src.to_u64()] = in_port;
  const auto it = standalone_macs_.find(packet.eth.dst.to_u64());
  if (!packet.eth.dst.is_multicast() && it != standalone_macs_.end()) {
    if (it->second != in_port) {
      ++counters_.packets_forwarded;
      if (send_packet_) send_packet_(it->second, packet);
    }
  } else {
    flood(packet, in_port);
  }
}

void OpenFlowSwitch::send_flow_removed(const ExpiredEntry& expired) {
  ofp::FlowRemoved msg;
  msg.match = expired.entry.match;
  msg.cookie = expired.entry.cookie;
  msg.priority = expired.entry.priority;
  msg.reason = expired.reason;
  msg.duration_sec =
      static_cast<std::uint32_t>((sched_.now() - expired.entry.installed_at) / kSecond);
  msg.idle_timeout = expired.entry.idle_timeout;
  msg.packet_count = expired.entry.packet_count;
  msg.byte_count = expired.entry.byte_count;
  ++counters_.flow_removed_sent;
  send_message(ofp::make_message(next_xid(), std::move(msg)));
}

void OpenFlowSwitch::schedule_echo() {
  sched_.after(config_.echo_interval, [this] { on_echo_timer(); });
}

void OpenFlowSwitch::on_echo_timer() {
  if (state_ != ChannelState::Disconnected) {
    if (echo_outstanding_) {
      ++echo_misses_;
      if (echo_misses_ >= config_.echo_miss_limit) mark_disconnected();
    }
    if (state_ != ChannelState::Disconnected) {
      echo_outstanding_ = true;
      ++counters_.echo_requests_sent;
      send_message(ofp::make_message(next_xid(), ofp::EchoRequest{}));
    }
  } else {
    // Periodic reconnect attempt, like OVS's backoff loop. The channel
    // stays Disconnected until the controller actually completes a new
    // handshake (FEATURES exchange).
    send_message(ofp::make_message(next_xid(), ofp::Hello{}));
    echo_outstanding_ = false;
    echo_misses_ = 0;
  }
  schedule_echo();
}

void OpenFlowSwitch::mark_disconnected() {
  if (state_ == ChannelState::Disconnected) return;
  state_ = ChannelState::Disconnected;
  echo_outstanding_ = false;
  standalone_macs_.clear();
  ATTAIN_LOG(Warn, config_.name)
      << "controller connection lost; entering "
      << (config_.fail_secure ? "fail-secure" : "fail-safe (standalone)") << " mode";
}

void OpenFlowSwitch::schedule_expiry() {
  sched_.after(config_.expiry_interval, [this] {
    for (const ExpiredEntry& expired : table_.expire(sched_.now())) {
      if ((expired.entry.flags & ofp::kFlowModSendFlowRem) != 0 &&
          state_ == ChannelState::Connected) {
        send_flow_removed(expired);
      }
    }
    // Ids are issued in buffering order, so the expired entries are a
    // prefix of the map.
    while (!buffers_.empty() &&
           sched_.now() - buffers_.begin()->second.buffered_at >= kBufferTtl) {
      buffers_.erase(buffers_.begin());
    }
    schedule_expiry();
  });
}

}  // namespace attain::swsim
