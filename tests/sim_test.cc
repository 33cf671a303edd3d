// Unit tests for the discrete-event simulator core: clock, task
// composition, spawn, synchronization primitives, CPU model, RNG.
//
// Note the lambda-coroutine convention (see src/sim/task.h): every capturing
// lambda coroutine is named so its closure outlives Simulator::Run().
#include <gtest/gtest.h>

#include <coroutine>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/counters.h"
#include "src/sim/cpu.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "tests/alloc_counting.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace splitio {
namespace {

TEST(SimTime, UnitHelpers) {
  EXPECT_EQ(Usec(3), 3000);
  EXPECT_EQ(Msec(2), 2000000);
  EXPECT_EQ(Sec(1), 1000000000);
  EXPECT_DOUBLE_EQ(ToSeconds(Sec(5)), 5.0);
  EXPECT_DOUBLE_EQ(ToMillis(Msec(7)), 7.0);
}

TEST(SimTime, TransferTime) {
  // 100 MB/s -> 1 MB takes 10 ms.
  EXPECT_EQ(TransferTime(1000000, 100.0 * 1000 * 1000), Msec(10));
}

TEST(Simulator, ClockAdvancesWithDelays) {
  Simulator sim;
  std::vector<Nanos> timestamps;
  auto body = [&]() -> Task<void> {
    timestamps.push_back(Simulator::current().Now());
    co_await Delay(Msec(5));
    timestamps.push_back(Simulator::current().Now());
    co_await Delay(Msec(10));
    timestamps.push_back(Simulator::current().Now());
  };
  sim.Spawn(body());
  sim.Run();
  ASSERT_EQ(timestamps.size(), 3u);
  EXPECT_EQ(timestamps[0], 0);
  EXPECT_EQ(timestamps[1], Msec(5));
  EXPECT_EQ(timestamps[2], Msec(15));
}

TEST(Simulator, TasksInterleaveDeterministically) {
  Simulator sim;
  std::vector<int> order;
  auto worker = [&](int id, Nanos period) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await Delay(period);
      order.push_back(id);
    }
  };
  sim.Spawn(worker(1, Msec(10)));
  sim.Spawn(worker(2, Msec(15)));
  sim.Run();
  // Wake-ups: t=10:1, t=15:2, t=20:1, t=30: worker 2 enqueued its wake-up at
  // t=15, worker 1 at t=20, so 2 precedes 1; t=45:2.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1, 2}));
}

TEST(Simulator, ImmediateWakeupsInterleaveWithTimedEvents) {
  // Same-time wake-ups take the O(1) FIFO fast path; execution order must
  // still be global (time, seq) order across the FIFO and the heap.
  Simulator sim;
  std::vector<int> order;
  Event ev;
  auto waiter = [&]() -> Task<void> {
    co_await ev.Wait();
    order.push_back(1);  // woken at t=10 via the immediate FIFO
  };
  auto timed = [&]() -> Task<void> {
    co_await Delay(Msec(10));
    order.push_back(2);
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay(Msec(10));
    order.push_back(3);
    ev.NotifyAll();
  };
  auto later = [&]() -> Task<void> {
    co_await Delay(Msec(12));
    order.push_back(4);
  };
  sim.Spawn(waiter());
  sim.Spawn(timed());
  sim.Spawn(notifier());
  sim.Spawn(later());
  sim.Run();
  // t=10: timed (scheduled first), then notifier, then the waiter's
  // notification (highest seq); t=12: later — after the FIFO drains.
  EXPECT_EQ(order, (std::vector<int>{2, 3, 1, 4}));
}

TEST(Simulator, NestedTaskComposition) {
  Simulator sim;
  Nanos finish = -1;
  auto inner = [](Nanos d) -> Task<int> {
    co_await Delay(d);
    co_return 42;
  };
  auto outer = [&]() -> Task<void> {
    int v = co_await inner(Msec(3));
    EXPECT_EQ(v, 42);
    v = co_await inner(Msec(4));
    EXPECT_EQ(v, 42);
    finish = Simulator::current().Now();
  };
  sim.Spawn(outer());
  sim.Run();
  EXPECT_EQ(finish, Msec(7));
}

// Logs its name and the simulated time when it is destroyed.
struct FreeProbe {
  std::vector<std::pair<std::string, Nanos>>* log;
  std::string name;
  ~FreeProbe() { log->emplace_back(name, Simulator::current().Now()); }
};

// Each coroutine holds one probe in its frame (a parameter, destroyed with
// the frame) and one as a body local.
Task<void> ProbedChild(std::unique_ptr<FreeProbe> frame, Nanos d) {
  FreeProbe local{frame->log, frame->name + " local"};
  co_await Delay(d);
}

Task<void> ProbedRoot(std::unique_ptr<FreeProbe> frame, Nanos d) {
  FreeProbe local{frame->log, frame->name + " local"};
  // Built outside the co_await: GCC 12 keeps a co_await expression's
  // temporaries in the frame and miscompiles a string moved out of one.
  std::unique_ptr<FreeProbe> child(
      new FreeProbe{frame->log, frame->name + " child"});
  co_await ProbedChild(std::move(child), d);
}

TEST(Simulator, FinishedRootTaskFreesItsFrame) {
  std::vector<std::pair<std::string, Nanos>> freed;
  auto probe = [&](const char* name) {
    return std::unique_ptr<FreeProbe>(new FreeProbe{&freed, name});
  };
  Simulator sim;
  sim.Spawn(ProbedRoot(probe("at-once"), 0));
  sim.Spawn(ProbedRoot(probe("delayed"), Msec(5)));
  sim.Run();
  const std::vector<std::pair<std::string, Nanos>> expected = {
      {"at-once child local", 0}, {"at-once child", 0},
      {"at-once local", 0},       {"at-once", 0},
      {"delayed child local", Msec(5)}, {"delayed child", Msec(5)},
      {"delayed local", Msec(5)},       {"delayed", Msec(5)}};
  EXPECT_EQ(freed, expected);
}

// A spawn allocates the task's frame and nothing else. The control pushes
// as many same-time wake-ups into a fresh simulator, so both grow the
// ready FIFO alike.
TEST(Simulator, SpawnAllocatesOnlyTheTaskFrame) {
  if (!AllocsAreCounted()) {
    GTEST_SKIP() << "the sanitizer runtime replaces the counting operator new";
  }
  constexpr uint64_t kTasks = 1000;
  auto noop = []() -> Task<void> { co_return; };
  uint64_t spawn_allocs = 0;
  {
    Simulator sim;
    const uint64_t before = counters().allocs;
    for (uint64_t i = 0; i < kTasks; ++i) {
      sim.Spawn(noop());
    }
    sim.Run();
    spawn_allocs = counters().allocs - before;
  }
  uint64_t fifo_allocs = 0;
  {
    Simulator sim;
    const uint64_t before = counters().allocs;
    for (uint64_t i = 0; i < kTasks; ++i) {
      sim.Schedule(sim.Now(), std::noop_coroutine());
    }
    sim.Run();
    fifo_allocs = counters().allocs - before;
  }
  EXPECT_GT(fifo_allocs, 0u);
  EXPECT_EQ(spawn_allocs, kTasks + fifo_allocs);
}

TEST(Simulator, SpawnAtResumesAtItsTime) {
  Simulator sim;
  std::vector<std::pair<std::string, Nanos>> order;
  auto mark = [&](std::string name) -> Task<void> {
    order.emplace_back(std::move(name), Simulator::current().Now());
    co_return;
  };
  auto sleeper = [&]() -> Task<void> {
    co_await Delay(Msec(5));
    order.emplace_back("sleeper", Simulator::current().Now());
    // At the current time: behind the wake-ups already due now.
    Simulator::current().SpawnAt(Msec(5), mark("spawned at 5 ms"));
  };
  sim.Spawn(sleeper());  // its 5 ms wake-up is scheduled once it runs
  sim.SpawnAt(Msec(5), mark("at 5 ms"));
  sim.SpawnAt(Msec(2), mark("at 2 ms"));
  sim.Run();
  const std::vector<std::pair<std::string, Nanos>> expected = {
      {"at 2 ms", Msec(2)},
      {"at 5 ms", Msec(5)},
      {"sleeper", Msec(5)},
      {"spawned at 5 ms", Msec(5)}};
  EXPECT_EQ(order, expected);
}

// An exception a root task lets escape has nowhere to go: it terminates
// the program, and the message names it.
TEST(SimulatorDeathTest, UncaughtExceptionInRootTaskTerminates) {
  auto thrower = []() -> Task<void> {
    co_await Delay(Msec(1));
    throw std::runtime_error("root task failed");
  };
  EXPECT_DEATH(
      {
        Simulator sim;
        sim.Spawn(thrower());
        sim.Run();
      },
      "root task failed");
}

TEST(Simulator, RunUntilStopsClock) {
  Simulator sim;
  int ticks = 0;
  auto ticker = [&]() -> Task<void> {
    for (;;) {
      co_await Delay(Msec(10));
      ++ticks;
    }
  };
  sim.Spawn(ticker());
  sim.Run(Msec(95));
  EXPECT_EQ(ticks, 9);
  EXPECT_EQ(sim.Now(), Msec(95));
}

// A horizon before the clock is a no-op: it neither moves the clock back
// nor touches the queues, so later wake-ups keep their times.
TEST(Simulator, EarlierHorizonLeavesTheClock) {
  Simulator sim;
  std::vector<Nanos> ticks;
  Nanos marked = -1;
  auto ticker = [&]() -> Task<void> {
    for (;;) {
      co_await Delay(Msec(10));
      ticks.push_back(Simulator::current().Now());
    }
  };
  auto mark = [&]() -> Task<void> {
    marked = Simulator::current().Now();
    co_return;
  };
  sim.Spawn(ticker());
  sim.Run(Msec(95));
  sim.Run(Msec(50));
  EXPECT_EQ(sim.Now(), Msec(95));
  sim.Spawn(mark());
  sim.Run(Msec(120));
  EXPECT_EQ(sim.Now(), Msec(120));
  EXPECT_EQ(marked, Msec(95));
  std::vector<Nanos> expected;
  for (int i = 1; i <= 12; ++i) {
    expected.push_back(Msec(10 * i));
  }
  EXPECT_EQ(ticks, expected);
}

// A child whose frame holds a 256-byte array across its suspension, next
// to the few words of a small one: two frame size classes.
Task<int> SmallChild(int x) { co_return x + 1; }

Task<int> LargeChild(int x) {
  int buf[64] = {};
  buf[x % 64] = x;
  co_await Delay(1);
  co_return buf[x % 64];
}

Task<void> SetLatchLater(Latch* latch) {
  co_await Delay(2);
  latch->Set();
}

// Frames are recycled per simulator: once a first round has warmed its
// free lists, the ready FIFO and the heap, a second identical round of
// spawns, child tasks, delays and latch waits allocates nothing.
TEST(Simulator, WarmFramesAllocateNothing) {
  if (!AllocsAreCounted()) {
    GTEST_SKIP() << "the sanitizer runtime replaces the counting operator new";
  }
  constexpr int kTasks = 64;
  Simulator sim;
  int64_t sum = 0;
  auto worker = [&](int id) -> Task<void> {
    const int a = co_await SmallChild(id);
    const int b = co_await LargeChild(id);
    co_await Delay(Usec(1));
    Latch latch;
    Simulator::current().Spawn(SetLatchLater(&latch));
    co_await latch.Wait();
    sum += a + b;
  };
  auto round = [&]() {
    const uint64_t before = counters().allocs;
    for (int i = 0; i < kTasks; ++i) {
      sim.Spawn(worker(i));
    }
    sim.Run();
    return counters().allocs - before;
  };
  EXPECT_GT(round(), 0u);
  EXPECT_EQ(round(), 0u);
  EXPECT_EQ(sum, 2 * kTasks * kTasks);
}

// Under ASan a frame on a free list is poisoned, so a use of a finished
// task's frame still reports; a reused frame is unpoisoned.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;  // resume at once
  }
  void await_resume() const noexcept {}
};

TEST(Simulator, RecycledFrameIsPoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  Simulator sim;
  void* first = nullptr;
  void* second = nullptr;
  bool poisoned_while_running = true;
  auto task = [&](void** frame) -> Task<void> {
    co_await FrameAddress{frame};
    poisoned_while_running = __asan_address_is_poisoned(*frame) != 0;
  };
  sim.Spawn(task(&first));
  sim.Run();
  ASSERT_NE(first, nullptr);
  EXPECT_NE(__asan_address_is_poisoned(first), 0);
  sim.Spawn(task(&second));
  sim.Run();
  EXPECT_EQ(second, first);  // the same class reuses the block
  EXPECT_FALSE(poisoned_while_running);
  EXPECT_NE(__asan_address_is_poisoned(first), 0);
#else
  GTEST_SKIP() << "frames are poisoned in ASan builds only";
#endif
}

TEST(Event, NotifyOneWakesInFifoOrder) {
  Simulator sim;
  Event event;
  std::vector<int> woke;
  auto waiter = [&](int id) -> Task<void> {
    co_await event.Wait();
    woke.push_back(id);
  };
  auto notifier = [&]() -> Task<void> {
    co_await Delay(Msec(1));
    event.NotifyOne();
    co_await Delay(Msec(1));
    event.NotifyOne();
    co_await Delay(Msec(1));
    event.NotifyAll();
  };
  sim.Spawn(waiter(1));
  sim.Spawn(waiter(2));
  sim.Spawn(waiter(3));
  sim.Spawn(notifier());
  sim.Run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2, 3}));
}

TEST(Latch, ReleasesAllWaitersAndLaterArrivals) {
  Simulator sim;
  Latch latch;
  int released = 0;
  auto waiter = [&]() -> Task<void> {
    co_await latch.Wait();
    ++released;
  };
  auto setter = [&]() -> Task<void> {
    co_await Delay(Msec(2));
    latch.Set();
  };
  auto late_waiter = [&]() -> Task<void> {
    co_await Delay(Msec(5));  // after Set
    co_await latch.Wait();
    ++released;
  };
  sim.Spawn(waiter());
  sim.Spawn(waiter());
  sim.Spawn(setter());
  sim.Spawn(late_waiter());
  sim.Run();
  EXPECT_EQ(released, 3);
  EXPECT_TRUE(latch.is_set());
}

// A latch links its waiters through their awaiters, which live in the
// waiting frames: once frames and the ready FIFO are warm, constructing a
// latch, parking three waiters and setting it allocates nothing, and the
// waiters wake in the order they parked.
TEST(Latch, WaitAndSetAllocateNothing) {
  if (!AllocsAreCounted()) {
    GTEST_SKIP() << "the sanitizer runtime replaces the counting operator new";
  }
  Simulator sim;
  std::vector<int> woke;
  woke.reserve(6);
  auto waiter = [&](Latch* latch, int id) -> Task<void> {
    co_await latch->Wait();
    woke.push_back(id);
  };
  auto round = [&](int first) {
    const uint64_t before = counters().allocs;
    Latch latch;
    for (int id = first; id < first + 3; ++id) {
      sim.Spawn(waiter(&latch, id));
    }
    sim.Run();  // all three park
    latch.Set();
    sim.Run();
    return counters().allocs - before;
  };
  round(0);  // warm-up: the frames and the ready FIFO
  EXPECT_EQ(round(3), 0u);
  EXPECT_EQ(woke, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(CpuModel, UncontendedRunsAtFullSpeed) {
  Simulator sim;
  CpuModel cpu(4);
  Nanos elapsed = -1;
  auto body = [&]() -> Task<void> {
    Nanos start = Simulator::current().Now();
    co_await cpu.Consume(Msec(10));
    elapsed = Simulator::current().Now() - start;
  };
  sim.Spawn(body());
  sim.Run();
  EXPECT_EQ(elapsed, Msec(10));
}

TEST(CpuModel, OverloadStretchesWork) {
  Simulator sim;
  CpuModel cpu(2);
  std::vector<Nanos> elapsed;
  auto burn = [&]() -> Task<void> {
    Nanos start = Simulator::current().Now();
    co_await cpu.Consume(Msec(10));
    elapsed.push_back(Simulator::current().Now() - start);
  };
  for (int i = 0; i < 8; ++i) {
    sim.Spawn(burn());
  }
  sim.Run();
  ASSERT_EQ(elapsed.size(), 8u);
  // 8 runnable on 2 cores -> roughly 4x stretch.
  for (Nanos e : elapsed) {
    EXPECT_GE(e, Msec(30));
    EXPECT_LE(e, Msec(45));
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundsRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Below(17);
    EXPECT_LT(v, 17u);
    int64_t r = rng.Range(-5, 5);
    EXPECT_GE(r, -5);
    EXPECT_LE(r, 5);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace splitio
