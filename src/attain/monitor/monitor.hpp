// Monitors (Fig. 7, §VI-B3): the framework-side recording of control-plane
// events — every interposed message, rule actuations, state transitions,
// injections, and SYSCMD invocations. Practitioners read the event log (or
// its counters) after a run; the experiment harness builds the paper's
// metrics from it. The monitor is test infrastructure and is not subject
// to the attacker capability model (which constrains only attack rules).
//
// Counter layout: the per-kind and per-type counters are plain arrays
// indexed by the enum value, so tallying them is one increment. The
// per-connection counters stay keyed by (connection, direction) and hand
// out stable cells (observed_cell()): the injector resolves each attached
// connection's two cells once and bumps them directly per frame. clear()
// zeroes every counter in place, so cached cells stay valid across it.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "attain/lang/value.hpp"
#include "common/arena.hpp"
#include "ofp/constants.hpp"

namespace attain::monitor {

enum class EventKind : std::uint8_t {
  MessageObserved,   // proxy saw a message (before rules)
  MessageForwarded,  // proxy delivered a message
  MessageDropped,    // removed from the outgoing list
  MessageDelayed,
  MessageDuplicated,
  MessageModified,
  MessageFuzzed,
  MessageInjected,
  MessageRedirected,
  RuleMatched,       // a conditional evaluated TRUE
  StateTransition,   // GoToState took effect
  ActionExecuted,
  SysCmd,
  EvalError,         // a conditional/action raised (treated as no-match)
  ConnectionAttached,
};
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::ConnectionAttached) + 1;

std::string to_string(EventKind kind);

/// Slab-backed event log storage (common/arena.hpp): the log grows during a
/// run and is torn down wholesale with the testbed, so its pages recycle
/// across sweep cells instead of churning the general heap.
struct Event {
  EventKind kind{EventKind::MessageObserved};
  SimTime time{0};
  ConnectionId connection;
  lang::Direction direction{lang::Direction::SwitchToController};
  std::uint64_t message_id{0};
  std::optional<ofp::MsgType> message_type;  // absent for TLS/undecodable
  std::size_t length{0};
  std::string rule;    // rule name, when applicable
  std::string state;   // attack state, when applicable
  std::string detail;  // free-form annotation
};

class Monitor {
 public:
  void record(Event event);

  using EventList = std::vector<Event, mem::SlabAllocator<Event>>;

  const EventList& events() const { return events_; }
  /// Drops the event list and zeroes every counter. Cells handed out by
  /// observed_cell() stay valid (and read zero).
  void clear();

  /// Number of events of a kind.
  std::uint64_t count(EventKind kind) const;
  /// Number of observed messages of an OpenFlow type (across connections).
  std::uint64_t observed_of_type(ofp::MsgType type) const;
  /// Observed messages on one connection, one direction.
  std::uint64_t observed_on(ConnectionId connection, lang::Direction direction) const;

  /// The counter cell behind observed_on(connection, direction), created
  /// at zero if absent. Its address is stable for the monitor's lifetime
  /// (clear() zeroes it in place), so a caller can resolve it once and
  /// bump it per frame instead of looking the pair up.
  std::uint64_t& observed_cell(ConnectionId connection, lang::Direction direction) {
    return conn_counts_[{connection, direction}];
  }

  /// Keep only counters, not the full event list (for long benchmark runs).
  void set_counters_only(bool counters_only) { counters_only_ = counters_only; }

  /// True when record() would store a full Event of this kind. When false,
  /// callers skip building the string-heavy Event and call tally() instead
  /// — same counters, none of the allocation. MessageObserved is always
  /// "enabled" because its type/direction fields feed dedicated counters
  /// even in counters-only mode.
  bool enabled(EventKind kind) const {
    return !counters_only_ || kind == EventKind::MessageObserved;
  }

  /// Counter-only fast path: counts the kind without storing an event.
  /// Pairs with enabled() so kind counts match the record() path exactly.
  void tally(EventKind kind, std::uint64_t n = 1) { kind_counts_[index(kind)] += n; }

  /// The emission idiom: true when the caller should build an Event of
  /// this kind and record() it. When the event is not enabled() it is
  /// tallied here instead and false comes back, so either way the kind is
  /// counted exactly once.
  bool wants(EventKind kind) {
    if (enabled(kind)) return true;
    tally(kind);
    return false;
  }

  bool counters_only() const { return counters_only_; }

  /// Counter-only mirror of a MessageObserved record(): bumps the kind,
  /// type, and per-connection counters exactly as record() would, without
  /// building the string-heavy Event. `connection_cell` is the frame's
  /// observed_cell(). The injector's fast path calls this once per frame;
  /// only valid while counters_only() is true (otherwise the event list
  /// would diverge from the record() path).
  void tally_observed(std::optional<ofp::MsgType> type, std::uint64_t& connection_cell) {
    ++kind_counts_[index(EventKind::MessageObserved)];
    if (type) ++type_counts_[index(*type)];
    ++connection_cell;
  }

 private:
  template <typename Enum>
  static constexpr std::size_t index(Enum value) {
    return static_cast<std::size_t>(value);
  }

  EventList events_;
  std::array<std::uint64_t, kEventKindCount> kind_counts_{};
  std::array<std::uint64_t, ofp::kMsgTypeCount> type_counts_{};
  mem::map<std::pair<ConnectionId, lang::Direction>, std::uint64_t> conn_counts_;
  bool counters_only_{false};
};

}  // namespace attain::monitor
