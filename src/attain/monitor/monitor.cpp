#include "attain/monitor/monitor.hpp"

#include <sstream>

#include "ofp/messages.hpp"

namespace attain::monitor {

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::MessageObserved: return "observed";
    case EventKind::MessageForwarded: return "forwarded";
    case EventKind::MessageDropped: return "dropped";
    case EventKind::MessageDelayed: return "delayed";
    case EventKind::MessageDuplicated: return "duplicated";
    case EventKind::MessageModified: return "modified";
    case EventKind::MessageFuzzed: return "fuzzed";
    case EventKind::MessageInjected: return "injected";
    case EventKind::MessageRedirected: return "redirected";
    case EventKind::RuleMatched: return "rule-matched";
    case EventKind::StateTransition: return "state-transition";
    case EventKind::ActionExecuted: return "action";
    case EventKind::SysCmd: return "syscmd";
    case EventKind::EvalError: return "eval-error";
    case EventKind::ConnectionAttached: return "attached";
  }
  return "?";
}

void Monitor::record(Event event) {
  ++kind_counts_[index(event.kind)];
  if (event.kind == EventKind::MessageObserved) {
    if (event.message_type) ++type_counts_[index(*event.message_type)];
    ++conn_counts_[{event.connection, event.direction}];
  }
  if (!counters_only_) events_.push_back(std::move(event));
}

void Monitor::clear() {
  events_.clear();
  kind_counts_.fill(0);
  type_counts_.fill(0);
  for (auto& entry : conn_counts_) entry.second = 0;
}

std::uint64_t Monitor::count(EventKind kind) const { return kind_counts_[index(kind)]; }

std::uint64_t Monitor::observed_of_type(ofp::MsgType type) const {
  return type_counts_[index(type)];
}

std::uint64_t Monitor::observed_on(ConnectionId connection, lang::Direction direction) const {
  const auto it = conn_counts_.find({connection, direction});
  return it == conn_counts_.end() ? 0 : it->second;
}

std::vector<Event> Monitor::select(const std::function<bool(const Event&)>& predicate) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (predicate(e)) out.push_back(e);
  }
  return out;
}

std::string Monitor::to_csv() const {
  std::ostringstream out;
  out << "time_s,kind,controller,switch,direction,message_id,message_type,length,rule,state,"
         "detail\n";
  auto csv_escape = [](const std::string& s) {
    std::string quoted = "\"";
    for (const char c : s) {
      if (c == '"') quoted += "\"\"";
      else quoted += c;
    }
    return quoted + "\"";
  };
  for (const Event& e : events_) {
    out << to_seconds(e.time) << ',' << to_string(e.kind) << ','
        << e.connection.controller.index << ',' << e.connection.sw.index << ','
        << (e.direction == lang::Direction::SwitchToController ? "s2c" : "c2s") << ','
        << e.message_id << ',' << (e.message_type ? ofp::to_string(*e.message_type) : "") << ','
        << e.length << ',' << e.rule << ',' << e.state << ',' << csv_escape(e.detail) << "\n";
  }
  return out.str();
}

std::string Monitor::to_text(std::size_t max_events) const {
  std::ostringstream out;
  std::size_t n = 0;
  for (const Event& e : events_) {
    if (max_events != 0 && n++ >= max_events) {
      out << "... (" << events_.size() - max_events << " more)\n";
      break;
    }
    out << "t=" << to_seconds(e.time) << " " << to_string(e.kind);
    if (e.message_type) out << " " << ofp::to_string(*e.message_type);
    if (e.message_id != 0) out << " id=" << e.message_id;
    if (!e.rule.empty()) out << " rule=" << e.rule;
    if (!e.state.empty()) out << " state=" << e.state;
    if (!e.detail.empty()) out << " (" << e.detail << ")";
    out << "\n";
  }
  return out.str();
}

}  // namespace attain::monitor
