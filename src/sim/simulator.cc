#include "src/sim/simulator.h"

#include <cassert>

#include "src/metrics/counters.h"
#include "src/metrics/sample_hook.h"

namespace splitio {

namespace {
// Pre-sized event-queue storage: avoids repeated reallocation of the heap's
// backing vector while a bench ramps up its thread population.
constexpr size_t kInitialQueueCapacity = 4096;

thread_local Simulator* g_current = nullptr;

}  // namespace

Simulator::Simulator() {
  assert(g_current == nullptr && "nested simulators are not supported");
  g_current = this;
  if (SampleHook* hook = sample_hook()) {
    hook->OnSimulatorStart();  // fresh clock: reset the sampling grid
  }
  std::vector<QueueItem> storage;
  storage.reserve(kInitialQueueCapacity);
  queue_ = std::priority_queue<QueueItem, std::vector<QueueItem>,
                               std::greater<>>(std::greater<>(),
                                               std::move(storage));
}

Simulator::Simulator(Detached) {
  // Shard simulators: many per thread, swapped in and out by the shard
  // runtime. No current-simulator registration, no sample-grid reset (the
  // telemetry hook is disabled inside shard slices — see src/sim/shard.cc).
  std::vector<QueueItem> storage;
  storage.reserve(kInitialQueueCapacity);
  queue_ = std::priority_queue<QueueItem, std::vector<QueueItem>,
                               std::greater<>>(std::greater<>(),
                                               std::move(storage));
}

Simulator::~Simulator() {
  if (g_current == this) {
    g_current = nullptr;
  }
}

Simulator& Simulator::current() {
  assert(g_current != nullptr);
  return *g_current;
}

Simulator* Simulator::SwapCurrent(Simulator* sim) {
  Simulator* prev = g_current;
  g_current = sim;
  return prev;
}

void Simulator::Schedule(Nanos t, std::coroutine_handle<> h) {
  if (t <= now_) {
    // Same-time wake-up: seq order within the FIFO matches global (time,
    // seq) order because now_ never decreases, so no heap is needed.
    ++counters().sim_immediate;
    ready_.push_back(QueueItem{now_, next_seq_++, h});
    return;
  }
  queue_.push(QueueItem{t, next_seq_++, h});
}

void Simulator::Run(Nanos until) {
  for (;;) {
    bool from_ready;
    if (ready_.empty()) {
      if (queue_.empty()) {
        // Quiescent exit: flush samples due up to (and including) now_.
        if (SampleHook* hook = sample_hook()) {
          hook->AdvanceTo(now_ + 1);
        }
        return;
      }
      from_ready = false;
    } else if (queue_.empty()) {
      from_ready = true;
    } else {
      const QueueItem& r = ready_.front();
      const QueueItem& q = queue_.top();
      from_ready = r.time < q.time || (r.time == q.time && r.seq < q.seq);
    }
    const QueueItem& top = from_ready ? ready_.front() : queue_.top();
    if (top.time > until) {
      // Horizon exit: flush samples due up to (and including) `until`.
      // (top.time > until implies until < kNanosMax, so +1 cannot wrap.)
      if (SampleHook* hook = sample_hook()) {
        hook->AdvanceTo(until + 1);
      }
      now_ = until;
      return;
    }
    QueueItem item = top;
    if (from_ready) {
      ready_.pop_front();
    } else {
      queue_.pop();
    }
    if (item.time > now_) {
      // The clock is about to advance: sample every telemetry grid boundary
      // the jump crosses. State at a boundary B reflects all events with
      // time <= B — exactly the piecewise-constant value at B (see
      // src/metrics/sample_hook.h). Same-time wake-ups skip the check.
      if (SampleHook* hook = sample_hook()) {
        hook->AdvanceTo(item.time);
      }
    }
    now_ = item.time;
    ++events_processed_;
    ++counters().sim_events;
    item.handle.resume();
  }
}

void Simulator::UncountWakeup() {
  --events_processed_;
  --counters().sim_events;
}

void Simulator::CountWakeup() {
  ++events_processed_;
  ++counters().sim_events;
}

}  // namespace splitio
