// Focused tests for Event::WaitWithTimeout and other sync edge cases —
// including regression coverage for the GCC-12 awaiter double-destruction
// hazard this code works around (see src/sim/task.h) — and for Condition
// against the Event re-check loop it replaces.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <tuple>
#include <vector>

#include "src/metrics/counters.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace splitio {
namespace {

TEST(WaitWithTimeout, NotifiedBeforeTimeout) {
  Simulator sim;
  Event event;
  bool notified_result = false;
  Nanos woke_at = -1;
  auto waiter = [&]() -> Task<void> {
    notified_result = co_await event.WaitWithTimeout(Msec(100));
    woke_at = Simulator::current().Now();
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay(Msec(10));
    event.NotifyAll();
  };
  sim.Spawn(waiter());
  sim.Spawn(notifier());
  sim.Run();
  EXPECT_TRUE(notified_result);
  EXPECT_EQ(woke_at, Msec(10));
}

TEST(WaitWithTimeout, TimesOutWithoutNotification) {
  Simulator sim;
  Event event;
  bool notified_result = true;
  Nanos woke_at = -1;
  auto waiter = [&]() -> Task<void> {
    notified_result = co_await event.WaitWithTimeout(Msec(25));
    woke_at = Simulator::current().Now();
  };
  sim.Spawn(waiter());
  sim.Run();
  EXPECT_FALSE(notified_result);
  EXPECT_EQ(woke_at, Msec(25));
}

TEST(WaitWithTimeout, LateNotifyDoesNotDoubleResume) {
  Simulator sim;
  Event event;
  int wakes = 0;
  auto waiter = [&]() -> Task<void> {
    co_await event.WaitWithTimeout(Msec(5));
    ++wakes;
    co_await Delay(Msec(100));  // stay alive past the late notify
    ++wakes;
  };
  auto late_notifier = [&]() -> Task<void> {
    co_await Delay(Msec(50));  // after the timeout fired
    event.NotifyAll();
    event.NotifyOne();
  };
  sim.Spawn(waiter());
  sim.Spawn(late_notifier());
  sim.Run();
  EXPECT_EQ(wakes, 2);  // exactly one wake from the wait, one from the delay
}

TEST(WaitWithTimeout, RepeatedUseInLoop) {
  // The dispatch-loop pattern: many timed waits in sequence, with notifies
  // racing timeouts. Exercises the cancellation bookkeeping heavily.
  Simulator sim;
  Event event;
  int notified_count = 0;
  int timeout_count = 0;
  auto looper = [&]() -> Task<void> {
    for (int i = 0; i < 50; ++i) {
      if (co_await event.WaitWithTimeout(Msec(3))) {
        ++notified_count;
      } else {
        ++timeout_count;
      }
    }
  };
  auto notifier = [&]() -> Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await Delay(Msec(7));
      event.NotifyAll();
    }
  };
  sim.Spawn(looper());
  sim.Spawn(notifier());
  sim.Run();
  EXPECT_EQ(notified_count + timeout_count, 50);
  EXPECT_GT(notified_count, 5);
  EXPECT_GT(timeout_count, 5);
}

TEST(WaitWithTimeout, MultipleWaitersMixedOutcomes) {
  Simulator sim;
  Event event;
  std::vector<bool> results;
  auto waiter = [&](Nanos timeout) -> Task<void> {
    results.push_back(co_await event.WaitWithTimeout(timeout));
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay(Msec(20));
    event.NotifyAll();
  };
  sim.Spawn(waiter(Msec(5)));   // times out at 5 ms
  sim.Spawn(waiter(Msec(50)));  // notified at 20 ms
  sim.Spawn(notifier());
  sim.Run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0]);
  EXPECT_TRUE(results[1]);
}

TEST(Delay, ZeroAndNegativeDelaysCompleteImmediately) {
  Simulator sim;
  int steps = 0;
  auto body = [&]() -> Task<void> {
    co_await Delay(0);
    ++steps;
    co_await Delay(-5);
    ++steps;
    EXPECT_EQ(Simulator::current().Now(), 0);
  };
  sim.Spawn(body());
  sim.Run();
  EXPECT_EQ(steps, 2);
}

TEST(Event, NotifyWithNoWaitersIsNoOp) {
  Simulator sim;
  Event event;
  event.NotifyOne();
  event.NotifyAll();
  // A waiter arriving after stray notifications still waits (CV semantics).
  bool woke = false;
  auto waiter = [&]() -> Task<void> {
    co_await event.Wait();
    woke = true;
  };
  sim.Spawn(waiter());
  sim.Run(Msec(10));
  EXPECT_FALSE(woke);
}

// ---------- Condition vs. the Event re-check loop ----------

// Re-schedules the awaiting coroutine at the current time: one plain
// same-time wake-up.
struct SameTime {
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    Simulator& sim = Simulator::current();
    sim.Schedule(sim.Now(), h);
  }
  void await_resume() const noexcept {}
};

// A random program: waiters wait on predicates over shared counters, and
// timers (and waiters whose wait returned) change the counters and notify,
// some after a same-time yield. Timer and waiter delays are a few
// microseconds, so many coroutines share instants: notifies land while
// earlier wake-ups are still pending, waits begin between a notify and its
// wake-ups, and yields fall between the wake-ups of two notifies.
struct CondStep {
  int kind = 0;  // 0: c[a] >= r, 1: c[a] mod m == r, 2: c[a] > c[b],
                 // 3: (c[a] + c[b]) mod m == r
  int a = 0;
  int b = 0;
  int64_t m = 1;
  int64_t r = 0;
  bool yield = false;  // after the wait returns: maybe a SameTime yield,
  int add_to = 0;      // then c[add_to] += delta,
  int64_t delta = 0;
  int notifies = 0;  // then this many NotifyAll calls,
  Nanos delay = 0;   // then this delay before the next wait
};

struct CondTimerStep {
  Nanos delay = 0;
  bool yield = false;
  int add_to = 0;
  int64_t delta = 0;
  int notifies = 0;
};

struct CondProgram {
  std::vector<Nanos> waiter_start;
  std::vector<std::vector<CondStep>> waiters;
  std::vector<std::vector<CondTimerStep>> timers;
};

constexpr int kCondCounters = 3;

CondProgram RandomCondProgram(uint64_t seed) {
  Rng rng(seed);
  CondProgram p;
  int coroutines = 3 + static_cast<int>(rng.Below(10));  // 3..12
  int timers = 1 + static_cast<int>(rng.Below(coroutines / 3 + 1));
  auto counter = [&] { return static_cast<int>(rng.Below(kCondCounters)); };
  auto notifies = [&] {
    uint64_t x = rng.Below(8);
    return x < 2 ? 0 : (x < 6 ? 1 : 2);
  };
  for (int w = 0; w < coroutines - timers; ++w) {
    p.waiter_start.push_back(Usec(static_cast<int64_t>(rng.Below(4))));
    std::vector<CondStep> steps(2 + rng.Below(7));
    for (CondStep& s : steps) {
      s.kind = static_cast<int>(rng.Below(4));
      s.a = counter();
      s.b = (s.a + 1 + static_cast<int>(rng.Below(kCondCounters - 1))) %
            kCondCounters;
      s.m = 2 + static_cast<int64_t>(rng.Below(3));
      s.r = s.kind == 0 ? static_cast<int64_t>(rng.Below(9)) - 2
                        : static_cast<int64_t>(rng.Below(s.m));
      s.yield = rng.Below(4) == 0;
      s.add_to = counter();
      s.delta = static_cast<int64_t>(rng.Below(6)) - 2;
      s.notifies = notifies();
      s.delay = Usec(static_cast<int64_t>(rng.Below(4)) / 2);
    }
    p.waiters.push_back(std::move(steps));
  }
  for (int t = 0; t < timers; ++t) {
    std::vector<CondTimerStep> steps(3 + rng.Below(8));
    for (CondTimerStep& s : steps) {
      s.delay = Usec(static_cast<int64_t>(rng.Below(4)));
      s.yield = rng.Below(4) == 0;
      s.add_to = counter();
      s.delta = static_cast<int64_t>(rng.Below(6)) - 2;
      s.notifies = notifies();
    }
    p.timers.push_back(std::move(steps));
  }
  return p;
}

// One execution of a program, with either wait implementation.
struct CondRun {
  const CondProgram* program = nullptr;
  bool use_condition = false;
  Event event;
  Condition cond;
  int64_t counters[kCondCounters] = {};
  bool stop = false;  // makes every predicate true, to drain the waiters

  // (time, waiter, step) of every wait that returned, in order.
  std::vector<std::tuple<Nanos, int, int>> trace;
  uint64_t resumptions = 0;  // waits resumed after suspending
  uint64_t futile = 0;       // Event only: resumed to a false predicate

  // Coverage, tracked by the Event run: its wake-ups are FIFO, so the
  // batches of the NotifyAll calls whose wake-ups have not all run form a
  // queue of remaining counts. A batch's wake-ups stand for its walk.
  int parked = 0;
  std::deque<std::pair<int, int>> batches;  // (size, remaining)
  int notify_before_walk = 0;  // a batch claimed while one is unwalked
  int wait_before_walk = 0;    // a wait began while a batch is unwalked

  bool Unwalked() const {
    return !batches.empty() && batches.back().first == batches.back().second;
  }

  bool Holds(const CondStep& s) const {
    auto mod = [](int64_t x, int64_t m) { return ((x % m) + m) % m; };
    const int64_t* c = counters;
    switch (s.kind) {
      case 0:
        return stop || c[s.a] >= s.r;
      case 1:
        return stop || mod(c[s.a], s.m) == s.r;
      case 2:
        return stop || c[s.a] > c[s.b];
      default:
        return stop || mod(c[s.a] + c[s.b], s.m) == s.r;
    }
  }

  void Notify() {
    if (use_condition) {
      cond.NotifyAll();
      return;
    }
    if (parked > 0) {
      notify_before_walk += Unwalked() ? 1 : 0;
      batches.emplace_back(parked, parked);
      parked = 0;
    }
    event.NotifyAll();
  }

  void Update(int add_to, int64_t delta, int notifies) {
    counters[add_to] += delta;
    for (int i = 0; i < notifies; ++i) {
      Notify();
    }
  }
};

Task<void> CondWaiter(CondRun& run, int id) {
  co_await Delay(run.program->waiter_start[id]);
  const std::vector<CondStep>& steps = run.program->waiters[id];
  for (int i = 0; i < static_cast<int>(steps.size()); ++i) {
    const CondStep& step = steps[i];
    auto holds = [&] { return run.Holds(step); };
    if (run.use_condition) {
      bool parks = !holds();
      co_await run.cond.WaitUntil(holds);
      run.resumptions += parks ? 1 : 0;
    } else {
      while (!holds()) {
        run.wait_before_walk += run.Unwalked() ? 1 : 0;
        ++run.parked;
        co_await run.event.Wait();
        if (--run.batches.front().second == 0) {
          run.batches.pop_front();
        }
        ++run.resumptions;
        run.futile += holds() ? 0 : 1;
      }
    }
    run.trace.emplace_back(Simulator::current().Now(), id, i);
    if (step.yield) {
      co_await SameTime{};
    }
    run.Update(step.add_to, step.delta, step.notifies);
    co_await Delay(step.delay);
  }
}

Task<void> CondTimer(CondRun& run, int id) {
  for (const CondTimerStep& step : run.program->timers[id]) {
    co_await Delay(step.delay);
    if (step.yield) {
      co_await SameTime{};
    }
    run.Update(step.add_to, step.delta, step.notifies);
  }
}

struct CondOutcome {
  uint64_t events = 0;      // Simulator::events_processed()
  uint64_t sim_events = 0;  // Counters::sim_events over the run
};

CondOutcome RunCondProgram(CondRun& run) {
  uint64_t sim_events_before = counters().sim_events;
  CondOutcome out;
  {
    Simulator sim;
    for (int w = 0; w < static_cast<int>(run.program->waiters.size()); ++w) {
      sim.Spawn(CondWaiter(run, w));
    }
    for (int t = 0; t < static_cast<int>(run.program->timers.size()); ++t) {
      sim.Spawn(CondTimer(run, t));
    }
    sim.Run();
    run.stop = true;  // the waits still parked return, and every task ends
    run.Notify();
    sim.Run();
    out.events = sim.events_processed();
  }
  out.sim_events = counters().sim_events - sim_events_before;
  return out;
}

// ~200 random programs, each run with `while (!p()) co_await ev.Wait()`
// and with `co_await cond.WaitUntil(p)`: every wait returns at the same
// time and in the same order, the Condition run resumes exactly the
// non-futile wake-ups, and each run's event count is the same in
// events_processed() and Counters::sim_events. Re-queueing a futile waiter
// anywhere but the queue's tail, or walking a batch claimed during a walk
// before the items queued ahead of it, breaks the traces.
TEST(Condition, MatchesEventRecheckLoop) {
  int programs_with_futile = 0;
  int notify_before_walk = 0;
  int wait_before_walk = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(testing::Message() << "program seed " << seed);
    CondProgram program = RandomCondProgram(seed);
    CondRun loop;
    loop.program = &program;
    CondOutcome loop_out = RunCondProgram(loop);
    CondRun cond;
    cond.program = &program;
    cond.use_condition = true;
    CondOutcome cond_out = RunCondProgram(cond);

    ASSERT_EQ(cond.trace, loop.trace);
    EXPECT_EQ(cond.resumptions, loop.resumptions - loop.futile);
    if (loop.futile > 0) {
      ++programs_with_futile;
      EXPECT_LT(cond.resumptions, loop.resumptions);
    }
    EXPECT_EQ(loop_out.events, loop_out.sim_events);
    EXPECT_EQ(cond_out.events, cond_out.sim_events);
    EXPECT_EQ(cond_out.events, loop_out.events - loop.futile);
    notify_before_walk += loop.notify_before_walk;
    wait_before_walk += loop.wait_before_walk;
  }
  // The programs cover the cases the batching has to get right.
  EXPECT_GT(programs_with_futile, 150);
  EXPECT_GT(notify_before_walk, 100);
  EXPECT_GT(wait_before_walk, 500);
}

// Once its buffers have grown to the herd, NotifyAll and the walk allocate
// nothing. Each cycle is one instant with three same-time ready items: the
// walk of the ticker's NotifyAll over the herd, the walk of a batch the
// releaser claims while that walk is pending (the late waiter, which parks
// in between), and the releaser's own yield. The control makes three
// plain same-time wake-ups per cycle, so both windows load the ready FIFO
// and the frame lists alike, and any difference is the Condition's.
TEST(Condition, NotifyAndWalkAreAllocationFreeOnceWarm) {
  constexpr int kHerd = 8;
  constexpr int kCycles = 1190;
  Simulator sim;
  Condition cond;
  int64_t tick = 0;
  int64_t released = 0;
  bool stop = false;
  int herd_done = 0;
  auto herd = [&](int id) -> Task<void> {
    int64_t last = 0;
    auto due = [&] { return stop || (tick != last && tick % 2 == id % 2); };
    while (!stop) {
      co_await cond.WaitUntil(due);
      last = tick;
    }
    ++herd_done;
  };
  // Each cycle runs ticker, late and releaser in that order: each schedules
  // its next cycle in that order.
  auto ticker = [&](int cycles) -> Task<void> {
    for (int i = 0; i < cycles; ++i) {
      co_await Delay(1);
      ++tick;
      cond.NotifyAll();
    }
  };
  auto late = [&](int cycles) -> Task<void> {
    for (int i = 0; i < cycles; ++i) {
      co_await Delay(1);
      auto freed = [&] { return released == tick; };
      co_await cond.WaitUntil(freed);
    }
  };
  auto releaser = [&](int cycles) -> Task<void> {
    for (int i = 0; i < cycles; ++i) {
      co_await Delay(1);
      released = tick;
      cond.NotifyAll();
      co_await SameTime{};
    }
  };
  auto control = [&](int cycles) -> Task<void> {
    for (int i = 0; i < cycles; ++i) {
      co_await Delay(1);
      co_await SameTime{};
      co_await SameTime{};
      co_await SameTime{};
    }
  };
  // Allocations and same-time ready items of one Run(), after `spawn`.
  auto window = [&](auto spawn) {
    spawn();
    uint64_t allocs = counters().allocs;
    uint64_t items = counters().sim_immediate;
    sim.Run();
    return std::pair(counters().allocs - allocs,
                     counters().sim_immediate - items);
  };
  auto cycles = [&](int n) {
    return [&, n] {
      sim.Spawn(ticker(n));
      sim.Spawn(late(n));
      sim.Spawn(releaser(n));
    };
  };
  for (int id = 0; id < kHerd; ++id) {
    sim.Spawn(herd(id));
  }
  window(cycles(50));  // warm-up: the walker and the buffers
  auto [condition_allocs, condition_items] = window(cycles(kCycles));
  auto [control_allocs, control_items] =
      window([&] { sim.Spawn(control(kCycles)); });
  ASSERT_EQ(condition_items, 3u * kCycles);
  ASSERT_EQ(control_items, 3u * kCycles);
  EXPECT_EQ(condition_allocs, control_allocs);
  stop = true;
  cond.NotifyAll();
  sim.Run();
  EXPECT_EQ(herd_done, kHerd);
}

}  // namespace
}  // namespace splitio
