// The sim::Scheduler contract written the plainest way: one heap entry per
// event, cancellation leaves the entry queued as a tombstone, rearm() is
// cancel + at, and at_key() is the at() that reserve() stood for — the
// event takes the key issued at reservation time. Differential tests run the same seeded programs on both
// and compare everything a callback or caller can observe.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace attain::sim::testing {

class ReferenceScheduler {
  struct Event {
    std::function<void()> fn;
    bool cancelled{false};
    bool fired{false};
  };

 public:
  class Handle {
   public:
    Handle() = default;
    void cancel() {
      if (event_) event_->cancelled = true;
    }
    bool pending() const { return event_ && !event_->fired && !event_->cancelled; }

   private:
    friend class ReferenceScheduler;
    explicit Handle(std::shared_ptr<Event> event) : event_(std::move(event)) {}
    std::shared_ptr<Event> event_;
  };

  SimTime now() const { return now_; }
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t issue_seq() const { return seq_; }

  Handle at(SimTime when, std::function<void()> fn) {
    if (when < now_) when = now_;
    auto event = std::make_shared<Event>();
    event->fn = std::move(fn);
    queue_.push(Entry{when, seq_++, event});
    return Handle{event};
  }

  Handle after(SimTime delay, std::function<void()> fn) { return at(now_ + delay, std::move(fn)); }

  struct Key {
    SimTime when;
    std::uint64_t seq;
  };

  Key reserve(SimTime when) {
    if (when < now_) when = now_;
    return Key{when, seq_++};
  }

  Handle at_key(Key key, std::function<void()> fn) {
    auto event = std::make_shared<Event>();
    event->fn = std::move(fn);
    queue_.push(Entry{key.when, key.seq, event});
    return Handle{event};
  }

  void rearm(Handle& handle, SimTime when, std::function<void()> fn) {
    handle.cancel();
    handle = at(when, std::move(fn));
  }

  void run() {
    while (!queue_.empty()) pop_and_dispatch();
  }

  void run_until(SimTime deadline) {
    while (!queue_.empty() && queue_.top().when <= deadline) pop_and_dispatch();
    if (now_ < deadline) now_ = deadline;
  }

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::shared_ptr<Event> event;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  void pop_and_dispatch() {
    Entry entry = queue_.top();
    queue_.pop();
    now_ = entry.when;  // tombstones advance the clock too
    Event& event = *entry.event;
    if (event.cancelled) {
      event.fn = nullptr;
      return;
    }
    event.fired = true;
    ++executed_;
    std::function<void()> fn = std::move(event.fn);
    fn();
  }

  SimTime now_{0};
  std::uint64_t seq_{0};
  std::uint64_t executed_{0};
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

}  // namespace attain::sim::testing
