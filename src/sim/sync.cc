#include "src/sim/sync.h"

namespace splitio {

Task<void> Event::TimeoutTimer(std::shared_ptr<TimeoutState> state,
                               Nanos timeout) {
  co_await Delay(timeout);
  if (!state->notified && !state->cancelled) {
    state->cancelled = true;
    Simulator& sim = Simulator::current();
    sim.Schedule(sim.Now(), state->handle);
  }
}

Task<bool> Event::WaitWithTimeout(Nanos timeout) {
  // The shared_ptr lives as a coroutine local; the awaiter temporary holds
  // only raw pointers. GCC 12 runs the destructor of a co_await operand
  // temporary twice, so awaiter objects must be trivially destructible
  // (see the note in task.h).
  auto state = std::make_shared<TimeoutState>();
  struct NodeAwaiter {
    Event* event;
    const std::shared_ptr<TimeoutState>* state;
    Nanos timeout;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      (*state)->handle = h;
      event->waiters_.push_back(WaitNode{h, *state});
      Simulator::current().Spawn(TimeoutTimer(*state, timeout));
    }
    bool await_resume() const noexcept { return (*state)->notified; }
  };
  co_return co_await NodeAwaiter{this, &state, timeout};
}

Condition::~Condition() {
  if (walker_) {
    walker_.destroy();
  }
}

void Condition::NotifyAll() {
  if (waiters_.empty()) {
    return;
  }
  if (claimed_.empty()) {
    claimed_.swap(waiters_);
  } else {
    claimed_.insert(claimed_.end(), waiters_.begin(), waiters_.end());
    waiters_.clear();
  }
  batch_ends_.push_back(claimed_.size());
  if (!walker_) {
    walker_ = WalkLoop().Release();
  }
  Simulator& sim = Simulator::current();
  sim.Schedule(sim.Now(), walker_);
}

Task<void> Condition::WalkLoop() {
  for (;;) {
    Walk();
    co_await std::suspend_always{};
  }
}

void Condition::Walk() {
  Simulator& sim = Simulator::current();
  sim.UncountWakeup();
  const size_t end = batch_ends_[next_batch_++];
  while (next_waiter_ < end) {
    // A copy: the resumed waiter may NotifyAll, which can grow claimed_.
    Waiter w = claimed_[next_waiter_++];
    if (w.check(w.pred)) {
      sim.CountWakeup();
      w.handle.resume();
    } else {
      waiters_.push_back(w);
    }
  }
  if (next_batch_ == batch_ends_.size()) {
    claimed_.clear();
    batch_ends_.clear();
    next_waiter_ = 0;
    next_batch_ = 0;
  }
}

}  // namespace splitio
