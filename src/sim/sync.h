// Synchronization primitives for simulated threads.
//
// All primitives are single-real-thread constructs for coroutines running
// inside one Simulator: no atomics, fully deterministic FIFO wake order.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace splitio {

// A broadcast/one-shot notification. Waiters suspend until Notify{One,All}.
// The event carries no state: a waiter that arrives after a notification
// waits for the next one (condition-variable semantics — always re-check the
// predicate in a loop). Every notified waiter is resumed, even when its
// re-check fails; for a re-check loop with a large herd use Condition
// below, which re-checks without resuming.
class Event {
 public:
  class Awaiter {
   public:
    explicit Awaiter(Event* event) : event_(event) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      // Plain waits carry no shared state — no allocation on this path.
      event_->waiters_.push_back(WaitNode{h, nullptr});
    }
    void await_resume() const noexcept {}

   private:
    Event* event_;
  };

  Awaiter Wait() { return Awaiter(this); }

  // Waits for a notification or `timeout`, whichever comes first. Returns
  // true iff the event was notified before the timeout.
  Task<bool> WaitWithTimeout(Nanos timeout);

  void NotifyOne() {
    // No waiters: nothing to schedule — and there may legitimately be no
    // live Simulator (e.g. an Event notified outside any simulation).
    while (!waiters_.empty()) {
      WaitNode node = std::move(waiters_.front());
      waiters_.pop_front();
      if (node.state != nullptr) {
        if (node.state->cancelled) {
          continue;
        }
        node.state->notified = true;
      }
      Simulator& sim = Simulator::current();
      sim.Schedule(sim.Now(), node.handle);
      return;
    }
  }

  void NotifyAll() {
    if (waiters_.empty()) {
      return;
    }
    Simulator& sim = Simulator::current();
    for (const WaitNode& node : waiters_) {
      if (node.state != nullptr) {
        if (node.state->cancelled) {
          continue;
        }
        node.state->notified = true;
      }
      sim.Schedule(sim.Now(), node.handle);
    }
    waiters_.clear();
  }

 private:
  // Shared only by timed waits: lets the timeout timer and the notifier
  // observe each other after the node leaves the deque.
  struct TimeoutState {
    std::coroutine_handle<> handle;
    bool notified = false;
    bool cancelled = false;
  };

  struct WaitNode {
    std::coroutine_handle<> handle;
    std::shared_ptr<TimeoutState> state;  // null for plain Wait()
  };

  static Task<void> TimeoutTimer(std::shared_ptr<TimeoutState> state,
                                 Nanos timeout);

  std::deque<WaitNode> waiters_;
};

// A condition variable whose waits carry their predicate.
// `co_await cond.WaitUntil(pred)` behaves exactly like
//
//   while (!pred()) co_await event.Wait();
//
// on an Event notified at the same points, with one difference: a notified
// waiter whose predicate is still false goes back on the queue without
// being resumed.
//
//  - NotifyAll claims the current waiters as one batch and schedules one
//    same-time ready item. The batch's individual wake-ups would have been
//    consecutive in the ready FIFO, so the item runs exactly where they
//    would have.
//  - The item walks the batch in FIFO order. It resumes each waiter whose
//    predicate holds inline, and appends the others to the queue's tail,
//    which is where their re-wait would have put them.
//  - A NotifyAll from a waiter resumed during a walk claims only the
//    waiters queued at that moment, as a new batch.
//
// Each waiter a walk resumes counts as one simulator event; a futile
// re-check counts none. Once the buffers have grown to the herd, neither
// NotifyAll nor a walk allocates. The predicate must have no side effects
// and must outlive the wait: pass a named lambda of the waiting coroutine.
// A Condition must outlive its pending walks.
class Condition {
 public:
  // Holds raw pointers only, so it stays trivially destructible (see the
  // awaiter rule in task.h).
  template <typename Pred>
  class Awaiter {
   public:
    Awaiter(Condition* cond, const Pred* pred) : cond_(cond), pred_(pred) {}
    bool await_ready() const { return (*pred_)(); }
    void await_suspend(std::coroutine_handle<> h) {
      cond_->waiters_.push_back(Waiter{h, &Check<Pred>, pred_});
    }
    void await_resume() const noexcept {}

   private:
    Condition* cond_;
    const Pred* pred_;
  };

  Condition() = default;
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;
  ~Condition();

  template <typename Pred>
  Awaiter<Pred> WaitUntil(const Pred& pred) {
    return Awaiter<Pred>(this, &pred);
  }

  void NotifyAll();

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    bool (*check)(const void* pred);
    const void* pred;
  };

  template <typename Pred>
  static bool Check(const void* pred) {
    return (*static_cast<const Pred*>(pred))();
  }

  // The coroutine behind every walk item: one Walk() per resumption.
  Task<void> WalkLoop();
  void Walk();

  std::vector<Waiter> waiters_;
  // Claimed batches not yet walked, back to back in claim order: batch i
  // ends before claimed_[batch_ends_[i]]. Walked entries stay in place
  // until every pending batch is walked, so indices stay valid while a
  // nested NotifyAll appends.
  std::vector<Waiter> claimed_;
  std::vector<size_t> batch_ends_;
  size_t next_waiter_ = 0;
  size_t next_batch_ = 0;
  std::coroutine_handle<> walker_;  // created by the first NotifyAll
};

// A one-shot completion latch: once Set(), all current and future waiters
// pass through immediately. Used for per-request completion.
//
// The waiters live in the waiting frames: each parked awaiter is a link of
// the latch's FIFO, so constructing, waiting on and setting a latch
// allocates nothing.
class Latch {
 public:
  // Holds raw pointers only, so it stays trivially destructible (see the
  // awaiter rule in task.h). It sits in the waiting frame while parked.
  class Awaiter {
   public:
    explicit Awaiter(Latch* latch) : latch_(latch) {}
    bool await_ready() const noexcept { return latch_->set_; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      handle_ = h;
      if (latch_->tail_ != nullptr) {
        latch_->tail_->next_ = this;
      } else {
        latch_->head_ = this;
      }
      latch_->tail_ = this;
    }
    void await_resume() const noexcept {}

   private:
    friend class Latch;
    Latch* latch_;
    std::coroutine_handle<> handle_;
    Awaiter* next_ = nullptr;
  };

  Awaiter Wait() { return Awaiter(this); }

  void Set() {
    set_ = true;
    if (head_ == nullptr) {
      return;
    }
    Simulator& sim = Simulator::current();
    for (Awaiter* w = head_; w != nullptr; w = w->next_) {
      sim.Schedule(sim.Now(), w->handle_);
    }
    head_ = tail_ = nullptr;
  }

  bool is_set() const { return set_; }

 private:
  bool set_ = false;
  Awaiter* head_ = nullptr;  // parked waiters, oldest first
  Awaiter* tail_ = nullptr;
};

}  // namespace splitio

#endif  // SRC_SIM_SYNC_H_
