// Keyed FIFO lane: payloads waiting for one consumer, kept out of the
// scheduler's event slots.
//
// Each payload is pushed under a key the owner reserved with
// Scheduler::reserve() when it arrived, so it fires exactly where an at()
// issued then would have fired. Only the head record is in the scheduler,
// behind one at_key() entry; serving it queues the next head under that
// record's key. A backlog of n payloads therefore costs n records here and
// one event slot and one heap entry there, instead of n slots and up to n
// heap entries.
//
// Records live in 32 KiB chunks from the thread's slab pool — the class
// the scheduler's slot chunks use, so either can reuse the other's
// blocks — and a chunk goes back to the slab as soon as it is drained.
// Keys must be pushed in increasing order (an owner reserving times that
// never decrease, like a single-server queue, always does).
#pragma once

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "common/arena.hpp"
#include "sim/scheduler.hpp"

namespace attain::sim {

template <typename T>
class Lane {
 public:
  /// Takes the served payload by reference; it is destroyed when the
  /// consumer returns (or throws).
  using Consumer = std::function<void(T&)>;

  Lane(Scheduler& sched, Consumer consumer) : sched_(&sched), consumer_(std::move(consumer)) {}
  /// Destroys the queued payloads. Like every `[this]` callback, the head
  /// event must not fire after the lane is gone.
  ~Lane() {
    while (size_ != 0) pop_front();
  }

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Appends `payload` under `key`, a key from reserve() later than every
  /// key pushed before it. The head of an empty lane is queued at once.
  void push(EventKey key, T&& payload) {
    if (tail_ == nullptr || tail_index_ == kPerChunk) append_chunk();
    ::new (static_cast<void*>(record(tail_, tail_index_))) Record{key, std::move(payload)};
    ++tail_index_;
    if (++size_ == 1) schedule_head();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  struct Record {
    EventKey key;
    T payload;
  };
  struct Chunk {
    Chunk* next;
  };

  static constexpr std::size_t kChunkBytes = 32 * 1024;
  /// Records start after the chunk header, aligned for a Record.
  static constexpr std::size_t kHeader =
      (sizeof(Chunk) + alignof(Record) - 1) / alignof(Record) * alignof(Record);
  static constexpr std::size_t kPerChunk = (kChunkBytes - kHeader) / sizeof(Record);
  static_assert(kPerChunk >= 8, "a lane record must be far smaller than its chunk");
  static_assert(alignof(Record) <= alignof(std::max_align_t),
                "slab chunks are aligned for max_align_t");
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "serving moves the head payload out of its record");

  static Record* record(Chunk* chunk, std::size_t index) {
    return reinterpret_cast<Record*>(reinterpret_cast<unsigned char*>(chunk) + kHeader) + index;
  }

  void append_chunk() {
    Chunk* chunk = static_cast<Chunk*>(mem::thread_slab().allocate(kChunkBytes));
    chunk->next = nullptr;
    if (tail_ != nullptr) {
      tail_->next = chunk;
    } else {
      head_ = chunk;
      head_index_ = 0;
    }
    tail_ = chunk;
    tail_index_ = 0;
  }

  /// Destroys the head record; frees its chunk once the chunk is drained.
  void pop_front() {
    record(head_, head_index_)->~Record();
    ++head_index_;
    --size_;
    if (size_ != 0 && head_index_ < kPerChunk) return;
    Chunk* next = head_->next;
    mem::thread_slab().deallocate(head_, kChunkBytes);
    head_ = next;
    head_index_ = 0;
    if (head_ == nullptr) tail_ = nullptr;
  }

  void schedule_head() {
    auto serve_head = [this] { serve(); };
    static_assert(Task::kNothrowEmplace<decltype(serve_head)>);
    sched_->at_key(record(head_, head_index_)->key, serve_head);
  }

  /// The head's event: pops the head, queues the next one, then hands the
  /// payload over — a consumer that throws still leaves the lane queued.
  void serve() {
    T payload = std::move(record(head_, head_index_)->payload);
    pop_front();
    if (size_ != 0) schedule_head();
    consumer_(payload);
  }

  Scheduler* sched_;
  Consumer consumer_;
  Chunk* head_{nullptr};
  Chunk* tail_{nullptr};
  std::size_t head_index_{0};  // next record to serve, in head_
  std::size_t tail_index_{0};  // next free record, in tail_
  std::size_t size_{0};
};

}  // namespace attain::sim
