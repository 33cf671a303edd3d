// Discrete-event simulator core.
//
// The simulator owns a priority queue of (time, sequence, coroutine handle)
// wake-ups and a simulated clock. Simulated threads are `Task<void>`
// coroutines handed to `Spawn`; they block by co_awaiting `Delay`,
// `sim::Event`, or higher-level primitives, all of which re-enqueue the
// coroutine in the event queue. Execution is single-threaded and fully
// deterministic: ties in wake-up time are broken by insertion order.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "src/sim/task.h"
#include "src/sim/time.h"

namespace splitio {

// Shared completion state for a spawned root task; allows joining.
class JoinState {
 public:
  bool done() const { return done_; }

  // Marks the task complete and wakes all joiners. Called by the simulator's
  // root-task driver.
  void MarkDone();

 private:
  friend class JoinAwaiter;
  bool done_ = false;
  std::vector<std::coroutine_handle<>> waiters_;
};

using JoinHandle = std::shared_ptr<JoinState>;

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

  // Starts a root simulated thread. The coroutine frame is owned by the
  // simulator machinery and freed when the task completes. The returned
  // handle can be awaited with `Join`.
  JoinHandle Spawn(Task<void> task);

  // Spawn, but the root task's first resumption happens at absolute time
  // `t` (>= Now()) instead of immediately. Used by the shard runtime to
  // inject a cross-shard message at its delivery timestamp without an
  // extra bounce through the current time.
  JoinHandle SpawnAt(Nanos t, Task<void> task);

  // Runs until the event queue is empty or the clock passes `until`.
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
      t = ready_.front().time;
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

  Nanos now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_processed_ = 0;
  // Wake-ups at the current time, in seq order. The overwhelmingly common
  // Schedule(Now(), h) — notifications, latch completions, spawns — is an
  // O(1) push here instead of an O(log n) heap insertion. Run() interleaves
  // this FIFO with the heap by (time, seq), so execution order is identical
  // to a single global priority queue.
  std::deque<QueueItem> ready_;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      queue_;
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

// Awaitable: wait until a spawned root task completes. Returns immediately if
// it already has.
//
// Holds a raw pointer only: GCC 12 destroys co_await operand temporaries
// twice, so awaiters must be trivially destructible. The JoinHandle passed
// to Join() is kept alive by the caller (an lvalue, or a temporary bound to
// the const& parameter, which lives to the end of the full expression).
class JoinAwaiter {
 public:
  explicit JoinAwaiter(JoinState* state) : state_(state) {}
  bool await_ready() const noexcept { return state_->done_; }
  void await_suspend(std::coroutine_handle<> h) {
    state_->waiters_.push_back(h);
  }
  void await_resume() const noexcept {}

 private:
  JoinState* state_;
};

inline JoinAwaiter Join(const JoinHandle& handle) {
  return JoinAwaiter(handle.get());
}

}  // namespace splitio

#endif  // SRC_SIM_SIMULATOR_H_
