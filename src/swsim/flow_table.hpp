// OpenFlow 1.0 flow table: priority + wildcard lookup, idle/hard timeout
// expiry, counters, and the five FLOW_MOD commands with OF1.0 strict /
// non-strict semantics.
//
// Lookup is a two-tier classifier, the same shape as OVS's exact-match fast
// path in front of a wildcard classifier:
//
//   tier 1: an exact-match hash index (packet FlowKey -> entry) consulted
//           first — OF1.0 §3.4 gives exact entries precedence over every
//           wildcard entry, so a tier-1 hit never needs tier 2;
//   tier 2: wildcard entries bucketed by their exact wildcard mask. A miss
//           probes each distinct mask once (hash lookup on the masked
//           packet key), so match_packet costs O(1) + O(distinct masks)
//           instead of the seed's O(entries) linear scan.
//
// Expiry runs on a sim::TimerWheel keyed on each entry's next idle/hard
// deadline. Idle deadlines are refreshed lazily: a packet hit only bumps
// last_used; when the stale wheel timer pops, the entry re-arms at its true
// deadline. expire(now) therefore touches only entries whose deadline
// actually arrived, not the whole table.
//
// Selection semantics are bit-for-bit those of the seed's linear scan:
// exact beats wildcard, then higher priority, and equal-priority ties
// resolve to the earliest-inserted entry (see the determinism note on
// match_packet). An ADD that replaces an identical (match, priority) entry
// keeps the original insertion rank, exactly like the seed's in-place
// vector overwrite.
#pragma once

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "ofp/messages.hpp"
#include "packet/flow_key.hpp"
#include "sim/timer_wheel.hpp"

namespace attain::swsim {

struct FlowEntry {
  ofp::Match match;
  std::uint16_t priority{0x8000};
  std::uint64_t cookie{0};
  std::uint16_t idle_timeout{0};  // seconds; 0 = never
  std::uint16_t hard_timeout{0};  // seconds; 0 = never
  std::uint16_t flags{0};
  ofp::ActionList actions;

  SimTime installed_at{0};
  SimTime last_used{0};
  std::uint64_t packet_count{0};
  std::uint64_t byte_count{0};
};

/// An entry evicted by expire(), with why it left the table.
struct ExpiredEntry {
  FlowEntry entry;
  ofp::FlowRemovedReason reason{ofp::FlowRemovedReason::IdleTimeout};
};

/// Slab-backed eviction list: expire()/apply() return one per call on the
/// steady-state path, so its storage recycles instead of churning the heap.
using ExpiredList = std::vector<ExpiredEntry, mem::SlabAllocator<ExpiredEntry>>;

class FlowTable {
 public:
  /// Applies a FLOW_MOD. Returns entries removed by Delete/DeleteStrict
  /// (the switch decides whether each warrants a FLOW_REMOVED, based on
  /// the entry's SEND_FLOW_REM flag).
  ExpiredList apply(const ofp::FlowMod& mod, SimTime now);

  /// Highest-precedence matching entry for `key` (the packet's canonical
  /// 12-tuple, extracted once at ingress), or nullptr on table miss.
  /// Updates the entry's counters and idle timestamp.
  ///
  /// Selection contract (the determinism guarantee the sweep JSON relies
  /// on): exact-match entries outrank all wildcard entries regardless of
  /// priority (OF1.0 §3.4); among wildcard entries higher priority wins;
  /// equal-priority overlapping entries resolve in insertion order —
  /// earliest installed wins. OF1.0 leaves the equal-priority case
  /// undefined; this table pins it down and tests enforce it.
  const FlowEntry* match_packet(const pkt::FlowKey& key, SimTime now, std::size_t wire_size);

  /// Convenience overload that extracts the key itself. Prefer the FlowKey
  /// overload on the hot path (one extraction per packet).
  const FlowEntry* match_packet(const pkt::Packet& packet, std::uint16_t in_port, SimTime now,
                                std::size_t wire_size);

  /// Batch lookup: observationally identical to calling the FlowKey
  /// overload once per key in order (same winners, same counter updates —
  /// nothing between two keys of a batch can change the table's
  /// structure), with one upfront pass that hashes every key and
  /// software-prefetches its exact-tier bucket, so the dependent cache
  /// misses overlap across the batch instead of serializing per packet.
  /// The switch looks packets up one at a time; e2e_bench's replay is the
  /// caller.
  void match_batch(const pkt::FlowKey* keys, const std::size_t* wire_sizes, std::size_t count,
                   SimTime now, const FlowEntry** out);

  /// Removes entries whose idle or hard timeout has elapsed, in insertion
  /// order. When both timeouts elapsed by `now`, the hard timeout wins the
  /// FLOW_REMOVED reason (checked first, as the seed scan did).
  ExpiredList expire(SimTime now);

  /// Live entries in insertion order (snapshot of pointers; invalidated by
  /// the next mutating call).
  std::vector<const FlowEntry*> entries() const;

  std::size_t size() const { return live_count_; }

  /// Caps live entries (0 = unlimited, the default). An ADD of a new
  /// (match, priority) against a full table is rejected and counted;
  /// ADD-replace of an existing entry still succeeds (it takes no slot).
  /// Models hardware TCAM exhaustion — the flow-table overflow attack's
  /// target (OFPFMFC_ALL_TABLES_FULL at the switch layer).
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t adds_rejected() const { return adds_rejected_; }

  /// Introspection for tests/benches: number of distinct wildcard masks
  /// (tier-2 buckets) currently live, and pending wheel timers.
  std::size_t distinct_wildcard_masks() const { return buckets_.size(); }
  std::size_t pending_timers() const { return wheel_.pending(); }

 private:
  static constexpr std::uint32_t kNil = std::numeric_limits<std::uint32_t>::max();
  static constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

  struct Slot {
    FlowEntry entry;
    pkt::FlowKey bucket_key;  // masked key projection under entry's own mask
    std::uint64_t seq{0};     // insertion rank (stable across ADD-replace)
    std::uint32_t timer_gen{0};  // invalidates stale wheel cookies
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
    bool live{false};
  };

  /// Entry ids sorted by (priority desc, seq asc) — front() is the winner.
  using IdList = mem::vector<std::uint32_t>;
  struct Bucket {
    std::uint32_t wildcards{0};
    mem::unordered_map<pkt::FlowKey, IdList, pkt::FlowKeyHash> by_key;
    std::size_t entry_count{0};
  };

  void add(const ofp::FlowMod& mod, SimTime now);
  void modify(const ofp::FlowMod& mod, SimTime now, bool strict);
  ExpiredList erase(const ofp::FlowMod& mod, bool strict);

  std::uint32_t find_strict(const ofp::Match& match, std::uint16_t priority) const;
  std::uint32_t acquire_slot();
  void remove_entry(std::uint32_t id);
  void index_insert(std::uint32_t id);
  void index_remove(std::uint32_t id);
  void arm_timer(std::uint32_t id);
  static SimTime next_deadline(const FlowEntry& entry);
  static std::uint64_t make_cookie(std::uint32_t id, std::uint32_t gen) {
    return (static_cast<std::uint64_t>(gen) << 32) | id;
  }

  mem::vector<Slot> slots_;
  mem::vector<std::uint32_t> free_slots_;
  std::uint32_t head_{kNil};
  std::uint32_t tail_{kNil};
  std::size_t live_count_{0};
  std::uint64_t next_seq_{0};
  std::size_t capacity_{0};
  std::uint64_t adds_rejected_{0};

  mem::unordered_map<pkt::FlowKey, IdList, pkt::FlowKeyHash> exact_;
  mem::vector<Bucket> buckets_;
  mem::unordered_map<std::uint32_t, std::size_t> bucket_of_;  // wildcards -> buckets_ index

  sim::TimerWheel wheel_;
  mem::vector<std::uint64_t> due_scratch_;
};

}  // namespace attain::swsim
