#include "ctl/controller.hpp"

#include "common/log.hpp"

namespace attain::ctl {

Controller::Controller(sim::Scheduler& sched, std::string name, SimTime processing_delay)
    : sched_(sched),
      name_(std::move(name)),
      processing_delay_(processing_delay),
      backlog_(sched, [this](Queued& queued) { process(queued.conn, queued.envelope); }) {}

ConnHandle Controller::add_connection(chan::EnvelopeSink send) {
  conns_.push_back(Conn{std::move(send), 0, false, {}, {}});
  return conns_.size() - 1;
}

void Controller::on_envelope(ConnHandle conn, chan::Envelope&& envelope) {
  ++counters_.messages_received;
  if (processing_delay_ == 0) {
    process(conn, envelope);
    return;
  }
  // Single-threaded processing: each message occupies the controller for
  // processing_delay_, FIFO behind the current backlog. Its key is taken
  // now, exactly where an at() would have put it.
  const SimTime start = std::max(sched_.now(), busy_until_);
  busy_until_ = start + processing_delay_;
  backlog_.push(sched_.reserve(busy_until_), Queued{conn, std::move(envelope)});
}

void Controller::process(ConnHandle conn, chan::Envelope& envelope) {
  const ofp::Message* msg = chan::ingress_decode(envelope, name_, counters_.decode_errors,
                                                 [conn] { return "conn " + std::to_string(conn); });
  if (msg == nullptr) return;
  handle(conn, *msg);
}

void Controller::handle(ConnHandle conn, const ofp::Message& msg) {
  using ofp::MsgType;
  switch (msg.type()) {
    case MsgType::Hello:
      // Switch (re)initiated the channel: advertise ourselves and learn the
      // datapath's features.
      conns_[conn].ready = false;
      send(conn, ofp::make_message(next_xid(), ofp::Hello{}));
      send(conn, ofp::make_message(next_xid(), ofp::FeaturesRequest{}));
      break;
    case MsgType::FeaturesReply: {
      conns_[conn].dpid = msg.as<ofp::FeaturesReply>().datapath_id;
      conns_[conn].ports = msg.as<ofp::FeaturesReply>().ports;
      conns_[conn].ready = true;
      ++counters_.switches_connected;
      ofp::SetConfig config;
      config.miss_send_len = 128;
      send(conn, ofp::make_message(next_xid(), config));
      ATTAIN_LOG(Info, name_) << "switch dpid=" << conns_[conn].dpid << " ready on conn " << conn;
      on_switch_ready(conn);
      break;
    }
    case MsgType::EchoRequest:
      send(conn, ofp::Message{msg.xid, ofp::EchoReply{msg.as<ofp::EchoRequest>().data}});
      break;
    case MsgType::EchoReply:
      break;
    case MsgType::PacketIn:
      ++counters_.packet_ins;
      on_packet_in(conn, msg.as<ofp::PacketIn>());
      break;
    case MsgType::FlowRemoved:
      on_flow_removed(conn, msg.as<ofp::FlowRemoved>());
      break;
    case MsgType::PortStatus:
      on_port_status(conn, msg.as<ofp::PortStatus>());
      break;
    case MsgType::Error:
      on_error(conn, msg.as<ofp::Error>());
      break;
    case MsgType::StatsReply:
      ++stats_replies_received_;
      conns_[conn].last_stats = msg.as<ofp::StatsReply>();
      on_stats_reply(conn, msg.as<ofp::StatsReply>());
      break;
    case MsgType::GetConfigReply:
    case MsgType::BarrierReply:
      break;
    default:
      ATTAIN_LOG(Debug, name_) << "ignoring " << to_string(msg.type()) << " on conn " << conn;
      break;
  }
}

void Controller::send(ConnHandle conn, ofp::Message msg) {
  Conn& c = conns_.at(conn);
  if (!c.send) return;
  ++counters_.messages_sent;
  switch (msg.type()) {
    case ofp::MsgType::FlowMod: ++counters_.flow_mods_sent; break;
    case ofp::MsgType::PacketOut: ++counters_.packet_outs_sent; break;
    default: break;
  }
  c.send(chan::Envelope(std::move(msg)));  // typed; wire bytes encode only if read
}

}  // namespace attain::ctl
