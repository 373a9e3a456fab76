// Deterministic discrete-event scheduler. All network elements (links,
// switches, controllers, hosts, the injector) schedule callbacks on a single
// Scheduler instance; virtual time advances only through run()/run_until().
//
// Every event is keyed by (when, seq), seq being the number of at()/rearm()/
// reserve() calls issued before it; events fire in key order. Three
// structures keep the heap small and the callbacks unmoved without changing
// that order:
//
//  - Slots. An event lives in a slot inside a fixed-size chunk drawn from
//    the thread's slab pool (mem::thread_slab()), so a slot never moves.
//    at() builds the callback in its slot (Task::emplace) and dispatch runs
//    it there. Free slots form an intrusive LIFO list; once the chunk count
//    reaches its high-water mark the loop never touches the general heap.
//  - Same-instant runs. Consecutive at() calls for the same `when` take
//    consecutive seqs, so no other event can be ordered between them: they
//    are chained through Slot::next behind one heap entry, and dispatch
//    walks the chain in order (skipping cancelled members). The run takes
//    appends until a rearm() or until dispatch reaches its tail.
//  - Exact re-arm. rearm() moving a timer later only records its new key in
//    the slot; the heap entry stays where it was, and when it pops, the slot
//    is requeued under the recorded key. Re-arming a timer per ACK therefore
//    leaves one queued entry instead of a cancelled tombstone per ACK.
//
// A popped entry sets now() to its time even when every event behind it
// was cancelled or moved, exactly as a queued tombstone would.
//
// Key reservation lets an owner keep a FIFO of payloads outside the slots
// (sim/lane.hpp) while every payload keeps the key at() would have given
// it: reserve() issues the key now, at_key() queues the callable under it
// later, behind its own heap entry.
#pragma once

#include <cstdint>
#include <queue>
#include <utility>

#include "common/arena.hpp"
#include "common/types.hpp"
#include "sim/task.hpp"

namespace attain::sim {

class Scheduler;

/// Handle for a scheduled event; lets the owner cancel it. Copyable; all
/// copies refer to the same pending event. A handle is a (slot, generation)
/// tag into the scheduler's slots and must not outlive the Scheduler that
/// issued it.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancels the event if it has not yet fired. Safe to call repeatedly or
  /// on a default-constructed handle.
  void cancel();

  bool pending() const;

 private:
  friend class Scheduler;
  EventHandle(Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}

  Scheduler* sched_{nullptr};
  std::uint32_t slot_{0};
  std::uint32_t gen_{0};
};

/// An event's position in the firing order, issued by Scheduler::reserve().
struct EventKey {
  SimTime when{0};
  std::uint64_t seq{0};
};

/// Min-heap event loop keyed by (time, sequence). Ties break in insertion
/// order, which makes runs bit-for-bit reproducible.
class Scheduler {
 public:
  Scheduler();
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute virtual time `when`. A `when` in the
  /// past is clamped to now(): stale timers fire immediately instead of
  /// running time backwards (or blowing up mid-simulation).
  template <typename F>
  EventHandle at(SimTime when, F&& fn) {
    if (when < now_) when = now_;
    const std::uint32_t index = free_head_ != kNone ? free_head_ : new_slot();
    Slot& slot = slot_at(index);
    slot.fn.emplace(std::forward<F>(fn));  // a throw leaves the slot free
    free_head_ = slot.next;
    enqueue(index, slot, when);
    return EventHandle{this, index, slot.gen};
  }

  /// Schedules `fn` to run `delay` microseconds from now.
  template <typename F>
  EventHandle after(SimTime delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Replaces the event behind `handle` with `fn` at `when`. Observably the
  /// same as `handle.cancel(); handle = at(when, fn);` — same key, same
  /// issue_seq() step, and earlier copies of `handle` go stale — but a live
  /// timer moved no earlier keeps its slot and its single heap entry.
  template <typename F>
  void rearm(EventHandle& handle, SimTime when, F&& fn) {
    if (when < now_) when = now_;
    if constexpr (Task::kNothrowEmplace<F>) {
      if (handle.sched_ == this) {
        Slot& slot = slot_at(handle.slot_);
        if (slot.gen == handle.gen_ && !slot.cancelled && when >= slot.due) {
          slot.fn = nullptr;
          slot.fn.emplace(std::forward<F>(fn));
          handle.gen_ = ++slot.gen;
          slot.due = when;
          slot.due_seq = seq_++;
          slot.moved = true;
          open_tail_ = kNone;  // the run's seqs are no longer consecutive
          return;
        }
      }
    }
    handle.cancel();
    handle = at(when, std::forward<F>(fn));
  }

  /// Issues the key that `at(when, ...)` would give an event now — the same
  /// issue_seq() step, a past `when` clamped to now() — without queueing
  /// anything, and closes the open same-instant run. at_key() queues the
  /// event later. Firing order, issue_seq() and the pipe batcher's
  /// coalescing guard behave exactly as if at() had been called here.
  EventKey reserve(SimTime when) {
    if (when < now_) when = now_;
    open_tail_ = kNone;  // the reserved seq splits any run opened before it
    return EventKey{when, seq_++};
  }

  /// Queues `fn` under a key from reserve(), behind its own heap entry;
  /// issues no seq. The key must not have been reached yet: call at_key()
  /// before any event with a later key is dispatched (an owner that
  /// reserves in FIFO order and queues the next key from the event firing
  /// under the previous one always does). Each key is used at most once.
  template <typename F>
  EventHandle at_key(EventKey key, F&& fn) {
    const std::uint32_t index = free_head_ != kNone ? free_head_ : new_slot();
    Slot& slot = slot_at(index);
    slot.fn.emplace(std::forward<F>(fn));  // a throw leaves the slot free
    free_head_ = slot.next;
    slot.due = key.when;
    slot.next = kNone;
    slot.cancelled = false;
    slot.moved = false;
    heap_.push(QueuedEvent{key.when, key.seq, index});
    return EventHandle{this, index, slot.gen};
  }

  /// Runs events until the queue drains.
  void run();

  /// Runs events with time <= `deadline`, then sets now() to `deadline`
  /// (even if the queue drained earlier).
  void run_until(SimTime deadline);

  /// Number of events executed since construction.
  std::uint64_t events_executed() const { return executed_; }

  /// Monotone count of at()/after()/rearm()/reserve() calls issued so far.
  /// The pipe batcher compares snapshots of this counter to prove that no
  /// event was scheduled anywhere in the process between two sends — the
  /// order-isomorphism guard that makes coalescing same-instant deliveries
  /// safe.
  std::uint64_t issue_seq() const { return seq_; }

  /// Credits `n` extra logical events against events_executed(). A batch
  /// event that delivers k coalesced payloads reports k-1 extras so the
  /// executed count matches the scalar schedule exactly.
  void count_extra_events(std::uint64_t n) { executed_ += n; }

  /// Number of entries in the heap: one per same-instant run, plus one per
  /// re-armed timer whose old position has not popped yet. Cancelled events
  /// stay counted until their entry pops; events chained behind another do
  /// not count. Structural introspection for tests and benches.
  std::size_t queued_entries() const { return heap_.size(); }

  /// The most event slots (the high-water mark of simultaneously live
  /// events) any scheduler on the calling thread has constructed since the
  /// last reset_thread_slots_peak() — for benches that reach a cell's
  /// scheduler only through the scenario API.
  static std::uint32_t thread_slots_peak();
  static void reset_thread_slots_peak();

 private:
  friend class EventHandle;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct Slot {
    Task fn;
    SimTime due{0};             // current key time (re-armed: the new one)
    std::uint64_t due_seq{0};   // re-armed key seq; read only when `moved`
    std::uint32_t next{kNone};  // same-instant run link, or free-list link
    std::uint32_t gen{0};       // bumped when the event fires or is freed
    bool cancelled{false};
    bool moved{false};  // re-armed: requeue at (due, due_seq) when reached
  };

  /// Slots per chunk: as many as fill one 32 KiB slab class.
  static constexpr std::uint32_t kChunkSlots = 32 * 1024 / sizeof(Slot);

  /// A heap entry: the first event of a same-instant run (or a requeued
  /// timer). Plain values, no ownership.
  struct QueuedEvent {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  Slot& slot_at(std::uint32_t index) const {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }

  /// Queues the freshly filled slot `index` under (when, seq_++): appended
  /// to the open same-instant run when it shares `when`, else behind a new
  /// heap entry that opens a run.
  void enqueue(std::uint32_t index, Slot& slot, SimTime when) {
    slot.due = when;
    slot.next = kNone;
    slot.cancelled = false;
    slot.moved = false;
    if (open_tail_ != kNone && slot_at(open_tail_).due == when) {
      slot_at(open_tail_).next = index;
    } else {
      heap_.push(QueuedEvent{when, seq_, index});
    }
    open_tail_ = index;
    ++seq_;
  }

  /// Constructs the next never-used slot (starting a chunk when the last
  /// one is full) and makes it the free-list head; returns its index.
  std::uint32_t new_slot();
  /// Destroys the slot's callback and frees the slot. Its generation must
  /// already be bumped, so no handle still reaches it.
  void release(std::uint32_t index, Slot& slot);
  /// Runs the same-instant run headed by `ev`.
  void dispatch(const QueuedEvent& ev);

  SimTime now_{0};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
  std::priority_queue<QueuedEvent, mem::vector<QueuedEvent>, Later> heap_;
  mem::vector<Slot*> chunks_;
  std::uint32_t constructed_{0};  // slots [0, constructed_) have been built
  std::uint32_t free_head_{kNone};
  std::uint32_t open_tail_{kNone};  // last event of the open run, if any
};

}  // namespace attain::sim
