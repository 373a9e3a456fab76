#include "sim/scheduler.hpp"

#include <new>

#include "common/log.hpp"

namespace attain::sim {

namespace {
thread_local std::uint32_t t_slots_peak = 0;
}  // namespace

std::uint32_t Scheduler::thread_slots_peak() { return t_slots_peak; }

void Scheduler::reset_thread_slots_peak() { t_slots_peak = 0; }

void EventHandle::cancel() {
  if (sched_ == nullptr) return;
  Scheduler::Slot& slot = sched_->slot_at(slot_);
  // A matching generation means the event is still queued: firing and
  // freeing both bump it.
  if (slot.gen == gen_) slot.cancelled = true;
}

bool EventHandle::pending() const {
  if (sched_ == nullptr) return false;
  const Scheduler::Slot& slot = sched_->slot_at(slot_);
  return slot.gen == gen_ && !slot.cancelled;
}

Scheduler::Scheduler() {
  Logger::instance().set_clock([this] { return now_; });
}

Scheduler::~Scheduler() {
  Logger::instance().set_clock({});
  for (std::uint32_t i = 0; i < constructed_; ++i) slot_at(i).~Slot();
  for (Slot* chunk : chunks_) mem::thread_slab().deallocate(chunk, kChunkSlots * sizeof(Slot));
}

std::uint32_t Scheduler::new_slot() {
  const std::uint32_t index = constructed_;
  if (index % kChunkSlots == 0) {
    chunks_.push_back(static_cast<Slot*>(mem::thread_slab().allocate(kChunkSlots * sizeof(Slot))));
  }
  ::new (&slot_at(index)) Slot();
  ++constructed_;
  if (constructed_ > t_slots_peak) t_slots_peak = constructed_;
  free_head_ = index;
  return index;
}

void Scheduler::release(std::uint32_t index, Slot& slot) {
  slot.fn = nullptr;
  slot.next = free_head_;
  free_head_ = index;
}

void Scheduler::dispatch(const QueuedEvent& ev) {
  now_ = ev.when;  // set even if nothing behind the entry fires (as seeded)
  std::uint32_t index = ev.slot;
  while (index != kNone) {
    if (index == open_tail_) open_tail_ = kNone;  // nothing may join a walked run
    Slot& slot = slot_at(index);
    const std::uint32_t next = slot.next;
    if (slot.moved) {
      // This was the re-armed timer's old position: take the new one.
      slot.moved = false;
      slot.next = kNone;
      heap_.push(QueuedEvent{slot.due, slot.due_seq, index});
    } else if (slot.cancelled) {
      ++slot.gen;
      release(index, slot);
    } else {
      ++slot.gen;  // handles see the event as fired while it runs
      ++executed_;
      try {
        slot.fn();
      } catch (...) {
        release(index, slot);
        // The rest of the run keeps its place: every key in it lies between
        // this entry's and the next heap entry's.
        if (next != kNone) heap_.push(QueuedEvent{ev.when, ev.seq, next});
        throw;
      }
      release(index, slot);
    }
    index = next;
  }
}

void Scheduler::run() {
  while (!heap_.empty()) {
    const QueuedEvent ev = heap_.top();
    heap_.pop();
    dispatch(ev);
  }
}

void Scheduler::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.top().when <= deadline) {
    const QueuedEvent ev = heap_.top();
    heap_.pop();
    dispatch(ev);
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace attain::sim
