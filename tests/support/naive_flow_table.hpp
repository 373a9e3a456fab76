// Reference OF1.0 flow table: the seed's linear-scan implementation, kept
// verbatim as the differential-testing oracle for the two-tier classifier
// in swsim/flow_table.hpp. It lives with the test support code, outside
// the library: production code must use FlowTable;
// this table is O(entries) per packet and O(entries) per expiry tick by
// construction, which is exactly what bench_flow_lookup measures against.
//
// Semantics contract shared with FlowTable (test_flow_table.cpp runs the
// same suite over both, and test_flow_table_differential.cpp fuzzes them
// side by side):
//   * exact entries outrank all wildcard entries regardless of priority;
//   * among equally-exact entries, higher priority wins;
//   * equal-priority overlapping entries resolve in insertion order
//     (earliest installed wins) — OF1.0 leaves this undefined, our
//     determinism guarantee pins it down;
//   * ADD onto an identical (match, priority) replaces in place, resetting
//     counters but keeping the insertion rank;
//   * expire() reports hard-timeout before idle-timeout when both elapsed,
//     in insertion order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "ofp/messages.hpp"
#include "swsim/flow_table.hpp"

namespace attain::swsim {

class NaiveFlowTable {
 public:
  ExpiredList apply(const ofp::FlowMod& mod, SimTime now) {
    switch (mod.command) {
      case ofp::FlowModCommand::Add:
        add(mod, now);
        return {};
      case ofp::FlowModCommand::Modify:
        modify(mod, now, /*strict=*/false);
        return {};
      case ofp::FlowModCommand::ModifyStrict:
        modify(mod, now, /*strict=*/true);
        return {};
      case ofp::FlowModCommand::Delete:
        return erase(mod, /*strict=*/false);
      case ofp::FlowModCommand::DeleteStrict:
        return erase(mod, /*strict=*/true);
    }
    return {};
  }

  const FlowEntry* match_packet(const pkt::Packet& packet, std::uint16_t in_port, SimTime now,
                                std::size_t wire_size) {
    FlowEntry* best = nullptr;
    bool best_exact = false;
    for (FlowEntry& entry : entries_) {
      if (!entry.match.matches(packet, in_port)) continue;
      const bool exact = entry.match.is_exact();
      if (best == nullptr || (exact && !best_exact) ||
          (exact == best_exact && entry.priority > best->priority)) {
        best = &entry;
        best_exact = exact;
      }
    }
    if (best != nullptr) {
      best->last_used = now;
      ++best->packet_count;
      best->byte_count += wire_size;
    }
    return best;
  }

  ExpiredList expire(SimTime now) {
    ExpiredList expired;
    std::erase_if(entries_, [&](const FlowEntry& entry) {
      ofp::FlowRemovedReason reason;
      if (entry.hard_timeout != 0 &&
          now - entry.installed_at >= static_cast<SimTime>(entry.hard_timeout) * kSecond) {
        reason = ofp::FlowRemovedReason::HardTimeout;
      } else if (entry.idle_timeout != 0 &&
                 now - entry.last_used >= static_cast<SimTime>(entry.idle_timeout) * kSecond) {
        reason = ofp::FlowRemovedReason::IdleTimeout;
      } else {
        return false;
      }
      expired.push_back(ExpiredEntry{entry, reason});
      return true;
    });
    return expired;
  }

  /// Same snapshot interface as FlowTable::entries() so the differential
  /// tests and the shared typed suite can compare the two uniformly.
  std::vector<const FlowEntry*> entries() const {
    std::vector<const FlowEntry*> out;
    out.reserve(entries_.size());
    for (const FlowEntry& entry : entries_) out.push_back(&entry);
    return out;
  }

  std::size_t size() const { return entries_.size(); }

 private:
  static bool out_port_filter(const FlowEntry& entry, std::uint16_t out_port) {
    if (out_port == static_cast<std::uint16_t>(ofp::Port::None)) return true;
    return std::any_of(entry.actions.begin(), entry.actions.end(), [&](const ofp::Action& a) {
      const auto* out = std::get_if<ofp::ActionOutput>(&a);
      return out != nullptr && out->port == out_port;
    });
  }

  void add(const ofp::FlowMod& mod, SimTime now) {
    for (FlowEntry& entry : entries_) {
      if (entry.priority == mod.priority && entry.match.strictly_equals(mod.match)) {
        entry.cookie = mod.cookie;
        entry.idle_timeout = mod.idle_timeout;
        entry.hard_timeout = mod.hard_timeout;
        entry.flags = mod.flags;
        entry.actions = mod.actions;
        entry.installed_at = now;
        entry.last_used = now;
        entry.packet_count = 0;
        entry.byte_count = 0;
        return;
      }
    }
    FlowEntry entry;
    entry.match = mod.match;
    entry.priority = mod.priority;
    entry.cookie = mod.cookie;
    entry.idle_timeout = mod.idle_timeout;
    entry.hard_timeout = mod.hard_timeout;
    entry.flags = mod.flags;
    entry.actions = mod.actions;
    entry.installed_at = now;
    entry.last_used = now;
    entries_.push_back(std::move(entry));
  }

  void modify(const ofp::FlowMod& mod, SimTime now, bool strict) {
    bool any = false;
    for (FlowEntry& entry : entries_) {
      const bool hit = strict ? entry.priority == mod.priority &&
                                    entry.match.strictly_equals(mod.match)
                              : mod.match.subsumes(entry.match);
      if (hit) {
        entry.actions = mod.actions;  // counters and timeouts preserved (spec §4.6)
        any = true;
      }
    }
    if (!any) add(mod, now);  // OF1.0: MODIFY with no match behaves like ADD
  }

  ExpiredList erase(const ofp::FlowMod& mod, bool strict) {
    ExpiredList removed;
    std::erase_if(entries_, [&](const FlowEntry& entry) {
      const bool hit = (strict ? entry.priority == mod.priority &&
                                     entry.match.strictly_equals(mod.match)
                               : mod.match.subsumes(entry.match)) &&
                       out_port_filter(entry, mod.out_port);
      if (hit) {
        removed.push_back(ExpiredEntry{entry, ofp::FlowRemovedReason::Delete});
      }
      return hit;
    });
    return removed;
  }

  std::vector<FlowEntry> entries_;
};

}  // namespace attain::swsim
