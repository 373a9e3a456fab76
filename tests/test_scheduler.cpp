#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reference_scheduler.hpp"

namespace attain::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(30, [&] { order.push_back(3); });
  sched.at(10, [&] { order.push_back(1); });
  sched.at(20, [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), 30);
}

TEST(Scheduler, TiesBreakInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.at(100, [&order, i] { order.push_back(i); });
  }
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, AfterSchedulesRelativeToNow) {
  Scheduler sched;
  SimTime fired_at = -1;
  sched.at(50, [&] {
    sched.after(25, [&] { fired_at = sched.now(); });
  });
  sched.run();
  EXPECT_EQ(fired_at, 75);
}

TEST(Scheduler, PastTimeClampsToNow) {
  // Regression: at(when < now()) used to throw, which made callers that
  // compute deadlines from stale timestamps brittle. It now clamps to
  // now(), firing the event immediately — and time never moves backwards.
  Scheduler sched;
  std::vector<SimTime> fired;
  sched.at(10, [&] {
    sched.at(5, [&] { fired.push_back(sched.now()); });
    sched.at(20, [&] { fired.push_back(sched.now()); });
  });
  sched.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sched.now(), 20);
}

TEST(Scheduler, ClampedEventsFireAfterAlreadyQueuedEventsAtNow) {
  // A clamped event lands at now() *behind* events already queued for that
  // instant: insertion order among equal timestamps is preserved.
  Scheduler sched;
  std::vector<int> order;
  sched.at(10, [&] {
    sched.at(10, [&] { order.push_back(1); });  // same-time, queued first
    sched.at(3, [&] { order.push_back(2); });   // clamped to 10, queued second
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  bool fired = false;
  EventHandle handle = sched.at(10, [&] { fired = true; });
  EXPECT_TRUE(handle.pending());
  handle.cancel();
  EXPECT_FALSE(handle.pending());
  sched.run();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, HandleNotPendingAfterFire) {
  Scheduler sched;
  EventHandle handle = sched.at(10, [] {});
  sched.run();
  EXPECT_FALSE(handle.pending());
  handle.cancel();  // safe no-op
}

TEST(Scheduler, StaleHandleCannotCancelRecycledSlot) {
  // The event pool recycles slots; a handle from a fired event must not
  // cancel a later event that happens to reuse the same slot (generation
  // tags disambiguate).
  Scheduler sched;
  EventHandle first = sched.at(10, [] {});
  sched.run_until(10);
  EXPECT_FALSE(first.pending());

  bool fired = false;
  EventHandle second = sched.at(20, [&] { fired = true; });
  first.cancel();  // stale generation: must be a no-op
  EXPECT_TRUE(second.pending());
  sched.run();
  EXPECT_TRUE(fired);
}

TEST(Scheduler, CancelledEventsStillAdvanceTimeButDoNotCount) {
  Scheduler sched;
  EventHandle handle = sched.at(10, [] {});
  sched.at(20, [] {});
  handle.cancel();
  sched.run();
  EXPECT_EQ(sched.now(), 20);
  EXPECT_EQ(sched.events_executed(), 1u);  // the cancelled one is not counted
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler sched;
  std::vector<SimTime> fired;
  sched.at(10, [&] { fired.push_back(10); });
  sched.at(20, [&] { fired.push_back(20); });
  sched.at(30, [&] { fired.push_back(30); });
  sched.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sched.now(), 20);
  sched.run_until(100);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_EQ(sched.now(), 100);
}

TEST(Scheduler, EventsCanScheduleMoreEvents) {
  Scheduler sched;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) sched.after(1, chain);
  };
  sched.after(1, chain);
  sched.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(sched.now(), 10);
  EXPECT_EQ(sched.events_executed(), 10u);
}

TEST(Scheduler, SecondsHelperConverts) {
  EXPECT_EQ(seconds(1.0), kSecond);
  EXPECT_EQ(seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond * 3), 3.0);
}

TEST(Scheduler, RearmLeavesOneQueuedEntry) {
  Scheduler sched;
  int fired = 0;
  EventHandle timer = sched.at(10, [&] { ++fired; });
  for (SimTime i = 1; i <= 10'000; ++i) sched.rearm(timer, 10 + i, [&] { ++fired; });
  EXPECT_EQ(sched.queued_entries(), 1u);
  EXPECT_EQ(sched.issue_seq(), 10'001u);
  sched.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), 10'010);
  EXPECT_EQ(sched.events_executed(), 1u);
}

TEST(Scheduler, CancelledRearmedTimerStillAdvancesClock) {
  // cancel + at would leave a tombstone at the re-armed time, and popping
  // it moves the clock there; the in-place re-arm must do the same.
  Scheduler sched;
  EventHandle timer = sched.at(10, [] {});
  sched.rearm(timer, 50, [] {});
  timer.cancel();
  sched.run();
  EXPECT_EQ(sched.now(), 50);
  EXPECT_EQ(sched.events_executed(), 0u);
}

TEST(Scheduler, SameInstantRunIsOneQueuedEntry) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) sched.at(50, [&order, i] { order.push_back(i); });
  EXPECT_EQ(sched.queued_entries(), 1u);
  sched.run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(sched.queued_entries(), 0u);
}

TEST(Scheduler, ThrowingCallbackLeavesRestOfRunQueued) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(10, [&] { order.push_back(0); });
  sched.at(10, [] { throw std::runtime_error("callback failed"); });
  sched.at(10, [&] { order.push_back(2); });
  sched.at(10, [&] { order.push_back(3); });
  EXPECT_THROW(sched.run(), std::runtime_error);
  EXPECT_EQ(order, (std::vector<int>{0}));
  sched.at(10, [&] { order.push_back(4); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 3, 4}));
  EXPECT_EQ(sched.events_executed(), 5u);
}

TEST(Scheduler, AtKeyFiresWhereTheReservingAtWouldHave) {
  Scheduler sched;
  std::vector<int> order;
  sched.at(10, [&] { order.push_back(0); });
  const EventKey key = sched.reserve(10);  // splits the same-instant run
  sched.at(10, [&] { order.push_back(2); });
  const EventKey past = sched.reserve(-5);  // clamped to now(), like at()
  EXPECT_EQ(past.when, 0);
  EXPECT_EQ(sched.issue_seq(), 4u);
  sched.at_key(key, [&] { order.push_back(1); });
  EventHandle late = sched.at_key(past, [&] { order.push_back(-1); });
  EXPECT_EQ(sched.issue_seq(), 4u);  // at_key issues no seq
  EXPECT_TRUE(late.pending());
  late.cancel();
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sched.events_executed(), 3u);
}

// A seeded random program over the public API: at()/after() at duplicate,
// zero-delay and past times, same-time bursts (also from inside callbacks
// that are themselves part of a same-time run), cancel(), rearm() later,
// equal and earlier, handle copies, pending() probes, run_until()
// deadlines, and reserve() bursts whose at_key() calls come later — after
// other issues, out of reservation order, at equal times — but always
// before the scheduler can reach them (at the end of the reserving
// callback at the latest). Every callback draws its next actions from the
// shared Rng, so two schedulers that fire in the same order replay the
// same program.
template <typename Sched>
class RandomProgram {
 public:
  using Handle = decltype(std::declval<Sched&>().at(SimTime{0}, [] {}));
  using Key = decltype(std::declval<Sched&>().reserve(SimTime{0}));
  using Record = std::array<std::int64_t, 5>;

  RandomProgram(Sched& sched, std::uint64_t seed) : sched_(sched), rng_(seed) {}

  std::vector<Record> run() {
    for (int i = 0; i < 12; ++i) act();
    for (int step = 0; step < 40; ++step) {
      const int actions = static_cast<int>(rng_.next_below(4));
      for (int i = 0; i < actions; ++i) act();
      fill_reserved();
      const SimTime deadline = sched_.now() + static_cast<SimTime>(rng_.next_below(40)) - 5;
      sched_.run_until(deadline);
      trace_.push_back({2, deadline, sched_.now(), executed(), issued()});
    }
    fill_reserved();
    sched_.run();
    trace_.push_back({3, 0, sched_.now(), executed(), issued()});
    return trace_;
  }

  /// Callables scheduled by this program that are still alive.
  int live() const { return live_; }

 private:
  static constexpr std::size_t kHandles = 16;
  static constexpr int kBudget = 600;  // at()/rearm() calls per program

  /// Counts its own copies, so a leaked or double-destroyed callable shows.
  /// noexcept copies keep the callables on rearm()'s in-place path.
  class Token {
   public:
    explicit Token(int* live) : live_(live) { ++*live_; }
    Token(const Token& other) noexcept : live_(other.live_) { ++*live_; }
    Token& operator=(const Token&) = delete;
    ~Token() { --*live_; }

   private:
    int* live_;
  };

  std::int64_t executed() const { return static_cast<std::int64_t>(sched_.events_executed()); }
  std::int64_t issued() const { return static_cast<std::int64_t>(sched_.issue_seq()); }

  void fire(std::int64_t id) {
    trace_.push_back({0, id, sched_.now(), executed(), issued()});
    const int actions = static_cast<int>(rng_.next_below(4));
    for (int i = 0; i < actions; ++i) act();
    fill_reserved();
  }

  enum class Via { kAt, kAfter, kRearm };

  /// Builds a callable for event `id` and hands it to `schedule`; one in
  /// eight is too large for the inline buffer.
  template <typename Schedule>
  void with_callable(std::int64_t id, Schedule schedule) {
    if (rng_.next_below(8) == 0) {
      std::array<char, Task::kInlineSize + 64> big{};
      big[0] = 1;
      schedule([this, id, big, token = Token(&live_)] { fire(id + big[0] - 1); });
    } else {
      schedule([this, id, token = Token(&live_)] { fire(id); });
    }
  }

  /// Reserves a key for handle slot `h`; at_key() comes later.
  void reserve(std::size_t h, SimTime when) {
    if (budget_ == 0) return;
    --budget_;
    reserved_.push_back({sched_.reserve(when), h});
  }

  /// Queues reservation `i` (in any order) under its key.
  void fill(std::size_t i) {
    const auto [key, h] = reserved_[i];
    reserved_.erase(reserved_.begin() + static_cast<std::ptrdiff_t>(i));
    const std::int64_t id = next_id_++;
    due_[h] = key.when;
    with_callable(id, [&](auto fn) { handles_[h] = sched_.at_key(key, std::move(fn)); });
  }

  void fill_reserved() {
    while (!reserved_.empty()) fill(rng_.next_below(reserved_.size()));
  }

  /// Issues one event into handle slot `h`; one in eight callables is too
  /// large for the inline buffer.
  void issue(std::size_t h, SimTime when, Via via) {
    if (budget_ == 0) return;
    --budget_;
    const std::int64_t id = next_id_++;
    due_[h] = std::max(when, sched_.now());
    with_callable(id, [&](auto fn) {
      switch (via) {
        case Via::kAt: handles_[h] = sched_.at(when, std::move(fn)); break;
        case Via::kAfter: handles_[h] = sched_.after(when - sched_.now(), std::move(fn)); break;
        case Via::kRearm: sched_.rearm(handles_[h], when, std::move(fn)); break;
      }
    });
  }

  SimTime pick_time() {
    const SimTime now = sched_.now();
    switch (rng_.next_below(6)) {
      case 0: return now;                                                   // zero delay
      case 1: return now + 1 + static_cast<SimTime>(rng_.next_below(3));    // near
      case 2: return now + static_cast<SimTime>(rng_.next_below(50));       // spread
      case 3: return due_[rng_.next_below(kHandles)];                       // duplicate
      case 4: return now - 1 - static_cast<SimTime>(rng_.next_below(10));   // past
      default: return now + static_cast<SimTime>(rng_.next_below(8));
    }
  }

  void act() {
    const std::size_t h = rng_.next_below(kHandles);
    switch (rng_.next_below(12)) {
      case 0:
      case 1:
        issue(h, pick_time(), Via::kAt);
        break;
      case 2:
        issue(h, sched_.now() + static_cast<SimTime>(rng_.next_below(20)), Via::kAfter);
        break;
      case 3: {  // same-time burst
        const SimTime when = rng_.chance(0.5) ? sched_.now() : pick_time();
        const int n = 2 + static_cast<int>(rng_.next_below(6));
        for (int i = 0; i < n; ++i) issue(rng_.next_below(kHandles), when, Via::kAt);
        break;
      }
      case 4:
        handles_[h].cancel();
        break;
      case 5:
      case 6: {  // rearm later, equal or earlier than the slot's last time
        SimTime when = due_[h];
        switch (rng_.next_below(3)) {
          case 0: when += 1 + static_cast<SimTime>(rng_.next_below(30)); break;
          case 1: break;
          default: when -= 1 + static_cast<SimTime>(rng_.next_below(10)); break;
        }
        issue(h, when, Via::kRearm);
        break;
      }
      case 7: {
        const std::size_t from = rng_.next_below(kHandles);
        handles_[h] = handles_[from];
        due_[h] = due_[from];
        break;
      }
      case 10: {  // reservation burst, some at one time
        const SimTime when = pick_time();
        const int n = 1 + static_cast<int>(rng_.next_below(3));
        for (int i = 0; i < n; ++i) {
          const std::size_t slot = rng_.next_below(kHandles);
          reserve(slot, rng_.chance(0.5) ? when : pick_time());
        }
        break;
      }
      case 11:  // an early at_key(), out of reservation order
        if (!reserved_.empty()) fill(rng_.next_below(reserved_.size()));
        break;
      default:
        trace_.push_back({1, static_cast<std::int64_t>(h), handles_[h].pending() ? 1 : 0, 0, 0});
        break;
    }
  }

  Sched& sched_;
  Rng rng_;
  std::array<Handle, kHandles> handles_{};
  std::array<SimTime, kHandles> due_{};
  std::vector<Record> trace_;
  std::vector<std::pair<Key, std::size_t>> reserved_;  // key, handle slot
  std::int64_t next_id_{0};
  int budget_{kBudget};
  int live_{0};
};

TEST(Scheduler, MatchesCancelAndRescheduleReference) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    std::vector<RandomProgram<Scheduler>::Record> actual;
    {
      Scheduler sched;
      RandomProgram<Scheduler> program(sched, seed);
      actual = program.run();
      EXPECT_EQ(sched.queued_entries(), 0u);
      EXPECT_EQ(program.live(), 0) << "seed " << seed << ": a callable outlived its event";
    }
    testing::ReferenceScheduler ref;
    RandomProgram<testing::ReferenceScheduler> ref_program(ref, seed);
    const auto expected = ref_program.run();

    const std::size_t common = std::min(actual.size(), expected.size());
    std::size_t first_diff = common;
    for (std::size_t i = 0; i < common; ++i) {
      if (actual[i] != expected[i]) {
        first_diff = i;
        break;
      }
    }
    ASSERT_TRUE(first_diff == common && actual.size() == expected.size())
        << "seed " << seed << " diverges at record " << first_diff << " of "
        << expected.size() << " (kind, a, b, c, d): got "
        << (first_diff < actual.size() ? ::testing::PrintToString(actual[first_diff]) : "end")
        << ", reference "
        << (first_diff < expected.size() ? ::testing::PrintToString(expected[first_diff]) : "end");
  }
}

}  // namespace
}  // namespace attain::sim
