#include "swsim/flow_table.hpp"

#include <algorithm>

#include "ofp/match.hpp"

namespace attain::swsim {

namespace {

bool out_port_filter(const FlowEntry& entry, std::uint16_t out_port) {
  if (out_port == static_cast<std::uint16_t>(ofp::Port::None)) return true;
  return std::any_of(entry.actions.begin(), entry.actions.end(), [&](const ofp::Action& a) {
    const auto* out = std::get_if<ofp::ActionOutput>(&a);
    return out != nullptr && out->port == out_port;
  });
}

}  // namespace

// ---------------------------------------------------------------------------
// Slab + insertion-order list

std::uint32_t FlowTable::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t id = free_slots_.back();
    free_slots_.pop_back();
    return id;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void FlowTable::remove_entry(std::uint32_t id) {
  Slot& slot = slots_[id];
  index_remove(id);
  if (slot.prev != kNil) {
    slots_[slot.prev].next = slot.next;
  } else {
    head_ = slot.next;
  }
  if (slot.next != kNil) {
    slots_[slot.next].prev = slot.prev;
  } else {
    tail_ = slot.prev;
  }
  slot.prev = slot.next = kNil;
  slot.live = false;
  ++slot.timer_gen;  // orphan any pending wheel cookie
  slot.entry = FlowEntry{};
  free_slots_.push_back(id);
  --live_count_;
}

// ---------------------------------------------------------------------------
// Hash index maintenance

void FlowTable::index_insert(std::uint32_t id) {
  const Slot& slot = slots_[id];
  IdList* list;
  if (slot.entry.match.wildcards == 0) {
    list = &exact_[slot.bucket_key];
  } else {
    const std::uint32_t wildcards = slot.entry.match.wildcards;
    auto it = bucket_of_.find(wildcards);
    if (it == bucket_of_.end()) {
      it = bucket_of_.emplace(wildcards, buckets_.size()).first;
      buckets_.emplace_back();
      buckets_.back().wildcards = wildcards;
    }
    Bucket& bucket = buckets_[it->second];
    ++bucket.entry_count;
    list = &bucket.by_key[slot.bucket_key];
  }
  // Keep the list sorted by (priority desc, seq asc): front() is the entry
  // match_packet selects, matching the linear scan's pick exactly.
  const auto pos = std::find_if(list->begin(), list->end(), [&](std::uint32_t other) {
    const Slot& o = slots_[other];
    return o.entry.priority < slot.entry.priority ||
           (o.entry.priority == slot.entry.priority && o.seq > slot.seq);
  });
  list->insert(pos, id);
}

void FlowTable::index_remove(std::uint32_t id) {
  const Slot& slot = slots_[id];
  auto drop = [&](auto& map) {
    const auto it = map.find(slot.bucket_key);
    IdList& list = it->second;
    list.erase(std::find(list.begin(), list.end(), id));
    if (list.empty()) map.erase(it);
  };
  if (slot.entry.match.wildcards == 0) {
    drop(exact_);
    return;
  }
  const std::uint32_t wildcards = slot.entry.match.wildcards;
  const auto bit = bucket_of_.find(wildcards);
  Bucket& bucket = buckets_[bit->second];
  drop(bucket.by_key);
  if (--bucket.entry_count == 0) {
    // Swap-and-pop so a miss only ever probes live masks.
    const std::size_t index = bit->second;
    bucket_of_.erase(bit);
    if (index != buckets_.size() - 1) {
      buckets_[index] = std::move(buckets_.back());
      bucket_of_[buckets_[index].wildcards] = index;
    }
    buckets_.pop_back();
  }
}

std::uint32_t FlowTable::find_strict(const ofp::Match& match, std::uint16_t priority) const {
  // strictly_equals(a, b) == (same wildcards && same masked key projection),
  // so the strict lookup is one hash probe in the entry's own bucket.
  const pkt::FlowKey key = ofp::masked_flow_key(match.key_projection(), match.wildcards);
  const IdList* list = nullptr;
  if (match.wildcards == 0) {
    const auto it = exact_.find(key);
    if (it != exact_.end()) list = &it->second;
  } else {
    const auto bit = bucket_of_.find(match.wildcards);
    if (bit != bucket_of_.end()) {
      const auto it = buckets_[bit->second].by_key.find(key);
      if (it != buckets_[bit->second].by_key.end()) list = &it->second;
    }
  }
  if (list != nullptr) {
    for (const std::uint32_t id : *list) {
      if (slots_[id].entry.priority == priority) return id;
    }
  }
  return kNil;
}

// ---------------------------------------------------------------------------
// Timer wheel

SimTime FlowTable::next_deadline(const FlowEntry& entry) {
  SimTime deadline = kNoDeadline;
  if (entry.hard_timeout != 0) {
    deadline = std::min(deadline,
                        entry.installed_at + static_cast<SimTime>(entry.hard_timeout) * kSecond);
  }
  if (entry.idle_timeout != 0) {
    deadline =
        std::min(deadline, entry.last_used + static_cast<SimTime>(entry.idle_timeout) * kSecond);
  }
  return deadline;
}

void FlowTable::arm_timer(std::uint32_t id) {
  Slot& slot = slots_[id];
  const SimTime deadline = next_deadline(slot.entry);
  if (deadline == kNoDeadline) return;  // permanent entry, never on the wheel
  wheel_.schedule(deadline, make_cookie(id, slot.timer_gen));
}

// ---------------------------------------------------------------------------
// FLOW_MOD commands

ExpiredList FlowTable::apply(const ofp::FlowMod& mod, SimTime now) {
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

void FlowTable::add(const ofp::FlowMod& mod, SimTime now) {
  // OF1.0: ADD replaces an entry with identical match and priority,
  // resetting counters. The replaced entry keeps its insertion rank (the
  // seed overwrote the vector element in place).
  const std::uint32_t existing = find_strict(mod.match, mod.priority);
  if (existing != kNil) {
    Slot& slot = slots_[existing];
    FlowEntry& entry = slot.entry;
    entry.cookie = mod.cookie;
    entry.idle_timeout = mod.idle_timeout;
    entry.hard_timeout = mod.hard_timeout;
    entry.flags = mod.flags;
    entry.actions = mod.actions;
    entry.installed_at = now;
    entry.last_used = now;
    entry.packet_count = 0;
    entry.byte_count = 0;
    ++slot.timer_gen;  // drop the old deadline, arm the new one
    arm_timer(existing);
    return;
  }

  if (capacity_ != 0 && live_count_ >= capacity_) {
    ++adds_rejected_;
    return;
  }

  const std::uint32_t id = acquire_slot();
  Slot& slot = slots_[id];
  FlowEntry& entry = slot.entry;
  entry.match = mod.match;
  entry.priority = mod.priority;
  entry.cookie = mod.cookie;
  entry.idle_timeout = mod.idle_timeout;
  entry.hard_timeout = mod.hard_timeout;
  entry.flags = mod.flags;
  entry.actions = mod.actions;
  entry.installed_at = now;
  entry.last_used = now;
  slot.bucket_key = ofp::masked_flow_key(entry.match.key_projection(), entry.match.wildcards);
  slot.seq = next_seq_++;
  slot.live = true;
  slot.prev = tail_;
  slot.next = kNil;
  if (tail_ != kNil) {
    slots_[tail_].next = id;
  } else {
    head_ = id;
  }
  tail_ = id;
  ++live_count_;
  index_insert(id);
  arm_timer(id);
}

void FlowTable::modify(const ofp::FlowMod& mod, SimTime now, bool strict) {
  bool any = false;
  if (strict) {
    const std::uint32_t id = find_strict(mod.match, mod.priority);
    if (id != kNil) {
      slots_[id].entry.actions = mod.actions;  // counters and timeouts preserved (spec §4.6)
      any = true;
    }
  } else {
    for (std::uint32_t id = head_; id != kNil; id = slots_[id].next) {
      if (mod.match.subsumes(slots_[id].entry.match)) {
        slots_[id].entry.actions = mod.actions;
        any = true;
      }
    }
  }
  if (!any) add(mod, now);  // OF1.0: MODIFY with no match behaves like ADD
}

ExpiredList FlowTable::erase(const ofp::FlowMod& mod, bool strict) {
  std::vector<std::uint32_t> victims;
  if (strict) {
    const std::uint32_t id = find_strict(mod.match, mod.priority);
    if (id != kNil && out_port_filter(slots_[id].entry, mod.out_port)) victims.push_back(id);
  } else {
    for (std::uint32_t id = head_; id != kNil; id = slots_[id].next) {
      if (mod.match.subsumes(slots_[id].entry.match) &&
          out_port_filter(slots_[id].entry, mod.out_port)) {
        victims.push_back(id);
      }
    }
  }
  ExpiredList removed;
  removed.reserve(victims.size());
  for (const std::uint32_t id : victims) {
    removed.push_back(ExpiredEntry{slots_[id].entry, ofp::FlowRemovedReason::Delete});
    remove_entry(id);
  }
  return removed;
}

// ---------------------------------------------------------------------------
// Lookup

const FlowEntry* FlowTable::match_packet(const pkt::FlowKey& key, SimTime now,
                                         std::size_t wire_size) {
  FlowEntry* best = nullptr;
  // Tier 1: exact match. OF1.0 §3.4 gives exact entries precedence over
  // every wildcard entry, so a hit here ends the lookup.
  const auto exact_hit = exact_.find(key);
  if (exact_hit != exact_.end()) {
    best = &slots_[exact_hit->second.front()].entry;
  } else {
    // Tier 2: one masked-key probe per distinct wildcard mask.
    std::uint64_t best_seq = 0;
    for (const Bucket& bucket : buckets_) {
      const auto hit = bucket.by_key.find(ofp::masked_flow_key(key, bucket.wildcards));
      if (hit == bucket.by_key.end()) continue;
      Slot& candidate = slots_[hit->second.front()];
      if (best == nullptr || candidate.entry.priority > best->priority ||
          (candidate.entry.priority == best->priority && candidate.seq < best_seq)) {
        best = &candidate.entry;
        best_seq = candidate.seq;
      }
    }
  }
  if (best != nullptr) {
    // Idle deadline refresh is lazy: only last_used moves here; the wheel
    // re-arms when the stale timer pops in expire().
    best->last_used = now;
    ++best->packet_count;
    best->byte_count += wire_size;
  }
  return best;
}

const FlowEntry* FlowTable::match_packet(const pkt::Packet& packet, std::uint16_t in_port,
                                         SimTime now, std::size_t wire_size) {
  return match_packet(pkt::FlowKey::from_packet(packet, in_port), now, wire_size);
}

void FlowTable::match_batch(const pkt::FlowKey* keys, const std::size_t* wire_sizes,
                            std::size_t count, SimTime now, const FlowEntry** out) {
#if defined(__GNUC__)
  // Pass 1: hash every key and prefetch its exact-tier bucket head so the
  // per-packet dependent load (bucket array -> node) overlaps across the
  // batch. The walk in pass 2 re-does the (now cached) hash lookup.
  if (!exact_.empty()) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t b = exact_.bucket(keys[i]);
      const auto head = exact_.begin(b);
      if (head != exact_.end(b)) __builtin_prefetch(&*head);
    }
  }
#endif
  // Pass 2: scalar-order matching, byte-identical semantics.
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = match_packet(keys[i], now, wire_sizes[i]);
  }
}

// ---------------------------------------------------------------------------
// Expiry

ExpiredList FlowTable::expire(SimTime now) {
  due_scratch_.clear();
  wheel_.advance(now, due_scratch_);

  struct Victim {
    std::uint64_t seq;
    std::uint32_t id;
    ofp::FlowRemovedReason reason;
  };
  std::vector<Victim> victims;
  for (const std::uint64_t cookie : due_scratch_) {
    const std::uint32_t id = static_cast<std::uint32_t>(cookie);
    const std::uint32_t gen = static_cast<std::uint32_t>(cookie >> 32);
    Slot& slot = slots_[id];
    if (!slot.live || slot.timer_gen != gen) continue;  // removed or replaced meanwhile
    const FlowEntry& entry = slot.entry;
    if (entry.hard_timeout != 0 &&
        now - entry.installed_at >= static_cast<SimTime>(entry.hard_timeout) * kSecond) {
      victims.push_back(Victim{slot.seq, id, ofp::FlowRemovedReason::HardTimeout});
    } else if (entry.idle_timeout != 0 &&
               now - entry.last_used >= static_cast<SimTime>(entry.idle_timeout) * kSecond) {
      victims.push_back(Victim{slot.seq, id, ofp::FlowRemovedReason::IdleTimeout});
    } else {
      // The idle deadline moved while the timer sat in the wheel; re-arm at
      // the entry's true next deadline (always in the future here).
      arm_timer(id);
    }
  }
  // Report in insertion order — the order the seed's vector scan produced,
  // which the FLOW_REMOVED message sequence (and thus the sweep JSON)
  // depends on.
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) { return a.seq < b.seq; });
  ExpiredList expired;
  expired.reserve(victims.size());
  for (const Victim& victim : victims) {
    expired.push_back(ExpiredEntry{slots_[victim.id].entry, victim.reason});
    remove_entry(victim.id);
  }
  return expired;
}

// ---------------------------------------------------------------------------

std::vector<const FlowEntry*> FlowTable::entries() const {
  std::vector<const FlowEntry*> out;
  out.reserve(live_count_);
  for (std::uint32_t id = head_; id != kNil; id = slots_[id].next) {
    out.push_back(&slots_[id].entry);
  }
  return out;
}

}  // namespace attain::swsim
