#include "src/sim/simulator.h"

#include <cassert>
#include <iterator>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define SPLITIO_POISON(p, n) ASAN_POISON_MEMORY_REGION(p, n)
#define SPLITIO_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION(p, n)
#else
#define SPLITIO_POISON(p, n) ((void)(p), (void)(n))
#define SPLITIO_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

#include "src/metrics/counters.h"
#include "src/metrics/sample_hook.h"

namespace splitio {

namespace {
// Pre-sized event-queue storage: avoids repeated reallocation of the heap's
// backing vector while a bench ramps up its thread population.
constexpr size_t kInitialQueueCapacity = 4096;

thread_local Simulator* g_current = nullptr;

}  // namespace

namespace internal {

// A pooled frame is always allocated at its class size, whichever list it
// comes from, so any list of that class can take it back. A frame on a
// list is poisoned under ASan, so a use after destroy still reports.
void* PromiseBase::operator new(std::size_t size) {
  if (size > Simulator::kMaxPooledFrame) {
    return ::operator new(size);
  }
  const size_t cls = (size - 1) / Simulator::kFrameGranule;
  const size_t bytes = (cls + 1) * Simulator::kFrameGranule;
  if (Simulator* sim = g_current) {
    if (Simulator::FreeFrame* frame = sim->free_frames_[cls]) {
      SPLITIO_UNPOISON(frame, bytes);
      sim->free_frames_[cls] = frame->next;
      return frame;
    }
  }
  return ::operator new(bytes);
}

void PromiseBase::operator delete(void* frame, std::size_t size) noexcept {
  Simulator* sim = g_current;
  if (size > Simulator::kMaxPooledFrame || sim == nullptr) {
    ::operator delete(frame);
    return;
  }
  const size_t cls = (size - 1) / Simulator::kFrameGranule;
  auto* free_frame = static_cast<Simulator::FreeFrame*>(frame);
  free_frame->next = sim->free_frames_[cls];
  sim->free_frames_[cls] = free_frame;
  SPLITIO_POISON(frame, (cls + 1) * Simulator::kFrameGranule);
}

}  // namespace internal

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
  for (size_t cls = 0; cls < std::size(free_frames_); ++cls) {
    while (FreeFrame* frame = free_frames_[cls]) {
      SPLITIO_UNPOISON(frame, (cls + 1) * kFrameGranule);
      free_frames_[cls] = frame->next;
      ::operator delete(frame);
    }
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
  if (until < now_) {
    return;
  }
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
      const QueueItem& r = ready_[ready_head_];
      const QueueItem& q = queue_.top();
      from_ready = r.time < q.time || (r.time == q.time && r.seq < q.seq);
    }
    const QueueItem& top = from_ready ? ready_[ready_head_] : queue_.top();
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
      if (++ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
      }
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
