#include "attain/monitor/monitor.hpp"

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

}  // namespace attain::monitor
