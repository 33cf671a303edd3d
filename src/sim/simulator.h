// Discrete-event simulator core.
//
// The simulator owns a priority queue of (time, sequence, coroutine handle)
// wake-ups and a simulated clock. Simulated threads are `Task<void>`
// coroutines handed to `Spawn`; they block by co_awaiting `Delay`,
// `sim::Event`, or higher-level primitives, all of which re-enqueue the
// coroutine in the event queue. Execution is single-threaded and fully
// deterministic: ties in wake-up time are broken by insertion order.
//
// Each simulator also recycles the coroutine frames of the tasks that run
// under it: a destroyed frame goes on a free list of its size class, and
// the next frame of that class reuses it (PromiseBase, src/sim/task.h). A
// task parked on a `Latch` waits in its own frame (src/sim/sync.h), so a warm
// simulation allocates neither frames nor latch waiters.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"

namespace splitio {

class Simulator {
 public:
  // Construction tag for shard simulators (src/sim/shard.h): a detached
  // simulator does not install itself as the thread's current simulator
  // (several coexist per thread; the shard runtime swaps them in and out
  // around execution slices) and does not touch the telemetry sample grid.
  struct Detached {};

  Simulator();
  explicit Simulator(Detached);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // The simulator currently executing (valid during construction..Run).
  static Simulator& current();

  // Replaces the thread's current simulator and returns the previous one
  // (either may be null). The shard runtime brackets every execution slice
  // with a swap pair so that code running inside a shard sees the shard's
  // simulator as `current()`.
  static Simulator* SwapCurrent(Simulator* sim);

  Nanos Now() const { return now_; }

  // Enqueues `h` to be resumed at absolute time `t` (>= Now()).
  void Schedule(Nanos t, std::coroutine_handle<> h);

  // Starts a root simulated thread: the task's first resumption is
  // scheduled at absolute time `t` (>= Now()), and its frame frees itself
  // when it finishes. Nothing can wait for a root task; it signals its own
  // completion (an Event, a Latch, a counter). The shard runtime uses a
  // future `t` to inject a cross-shard message at its delivery timestamp
  // without an extra bounce through the current time.
  void SpawnAt(Nanos t, Task<void> task) { Schedule(t, task.Release()); }
  void Spawn(Task<void> task) { SpawnAt(now_, std::move(task)); }

  // Runs until the event queue is empty or the clock passes `until`. A
  // horizon before Now() returns at once: the clock never runs backwards.
  void Run(Nanos until = kNanosMax);

  // True when no wake-up is pending (quiescent — blocked coroutines may
  // still be parked on Events/Latches waiting for external input).
  bool idle() const { return ready_.empty() && queue_.empty(); }

  // Timestamp of the earliest pending wake-up, or kNanosMax when idle.
  // The shard runtime's epoch loop uses this to skip dead time between
  // conservative synchronization windows.
  Nanos NextEventTime() const {
    Nanos t = kNanosMax;
    if (!ready_.empty()) {
      t = ready_[ready_head_].time;
    }
    if (!queue_.empty() && queue_.top().time < t) {
      t = queue_.top().time;
    }
    return t;
  }

  // Total wake-ups processed (for overhead accounting in benches).
  uint64_t events_processed() const { return events_processed_; }

  // Wake-up accounting for a ready item that resumes coroutines inline
  // (Condition's walk, src/sim/sync.h): the item itself is not a wake-up
  // (UncountWakeup), each coroutine it resumes is one (CountWakeup). Both
  // move events_processed() and Counters::sim_events together.
  void UncountWakeup();
  void CountWakeup();

 private:
  friend struct internal::PromiseBase;  // the frame free lists

  struct QueueItem {
    Nanos time;
    uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const QueueItem& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  // A recycled frame on a free list.
  struct FreeFrame {
    FreeFrame* next;
  };
  // Frames up to kMaxPooledFrame bytes are rounded up to a multiple of
  // kFrameGranule and recycled through one LIFO list per size class.
  static constexpr size_t kFrameGranule = 16;
  static constexpr size_t kMaxPooledFrame = 1024;

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  // Wake-ups at the current time, in seq order, from ready_head_ on. The
  // overwhelmingly common Schedule(Now(), h) — notifications, latch
  // completions, spawns — is an O(1) push here instead of an O(log n) heap
  // insertion. Run() interleaves this FIFO with the heap by (time, seq), so
  // execution order is identical to a single global priority queue. Run()
  // rewinds the buffer as soon as its head reaches the end (it always has
  // when the clock advances), so a warm FIFO allocates nothing and
  // `ready_.empty()` means no ready item is pending: a cheap test, which
  // matters because the shard epoch loop asks every shard.
  std::vector<QueueItem> ready_;
  size_t ready_head_ = 0;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      queue_;
  FreeFrame* free_frames_[kMaxPooledFrame / kFrameGranule] = {};
};

// Awaitable: resume the current coroutine after `d` nanoseconds of simulated
// time. Negative delays are clamped to zero.
struct DelayAwaiter {
  Nanos delay;
  bool await_ready() const noexcept { return delay <= 0; }
  void await_suspend(std::coroutine_handle<> h) const {
    Simulator& sim = Simulator::current();
    sim.Schedule(sim.Now() + delay, h);
  }
  void await_resume() const noexcept {}
};

inline DelayAwaiter Delay(Nanos d) { return DelayAwaiter{d}; }

}  // namespace splitio

#endif  // SRC_SIM_SIMULATOR_H_
