// Scheduler building blocks: stride scheduling state and token buckets.
#ifndef SRC_SCHED_UTIL_H_
#define SRC_SCHED_UTIL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/sync.h"
#include "src/sim/time.h"

namespace splitio {

// Stride-scheduling passes (Waldspurger & Weihl). Each client advances its
// pass by charge/weight; clients with the minimum pass are served first.
// Callers own the client records (StrideEngine keeps one per client, with
// its own fields around these) at stable addresses.
struct StrideClient {
  static constexpr size_t kInactive = static_cast<size_t>(-1);

  double weight = 1.0;
  double pass = 0;
  size_t slot = kInactive;  // index in StrideState's heap while active
};

// The *active* clients (callers decide what active means), indexed by a
// binary min-heap on pass, so the minimum active pass is O(1). Invariant: a
// client is active iff its `slot` is its index in `heap_`, and every pass
// change of an active client re-sifts it before returning. Once the heap
// has been reserved for every known client, no operation allocates.
class StrideState {
 public:
  StrideState() = default;
  StrideState(const StrideState&) = delete;  // records point into heap_
  StrideState& operator=(const StrideState&) = delete;

  // Keeps the heap's capacity at least `clients` (call as clients appear).
  void Reserve(size_t clients) {
    if (heap_.capacity() < clients) {
      heap_.reserve(2 * clients);
    }
  }

  void SetWeight(StrideClient& c, double weight) {
    c.weight = std::max(weight, 1e-9);
  }

  // Charges `cost` to the client; a negative cost is a refund.
  void Charge(StrideClient& c, double cost) {
    c.pass += cost / c.weight;
    Resift(c);
  }

  // Raises the client's pass to at least `floor` — used when a client
  // re-activates after idling, so idle time does not bank credit.
  void SetPassAtLeast(StrideClient& c, double floor) {
    if (floor > c.pass) {
      c.pass = floor;
      Resift(c);
    }
  }

  // Adds the client to the active set in O(log n); false if already active.
  bool Activate(StrideClient& c) {
    if (c.slot != StrideClient::kInactive) {
      return false;
    }
    heap_.push_back(&c);
    SiftUp(heap_.size() - 1);
    return true;
  }

  // Deactivates every active client for which `drop(client)` holds, in
  // one O(active) sweep that rebuilds the heap.
  template <typename Pred>
  void DeactivateIf(Pred&& drop) {
    size_t kept = 0;
    for (StrideClient* c : heap_) {
      if (drop(*c)) {
        c->slot = StrideClient::kInactive;
      } else {
        Place(kept++, c);
      }
    }
    if (kept == heap_.size()) {
      return;
    }
    heap_.resize(kept);
    for (size_t i = kept / 2; i-- > 0;) {
      SiftDown(i);
    }
  }

  // Minimum pass among the active clients (0 when none is active).
  double MinActivePass() const {
    return heap_.empty() ? 0 : heap_.front()->pass;
  }

 private:
  void Place(size_t i, StrideClient* c) {
    heap_[i] = c;
    c->slot = i;
  }

  void SiftUp(size_t i) {
    StrideClient* c = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (heap_[parent]->pass <= c->pass) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, c);
  }

  void SiftDown(size_t i) {
    StrideClient* c = heap_[i];
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= heap_.size()) {
        break;
      }
      if (child + 1 < heap_.size() &&
          heap_[child + 1]->pass < heap_[child]->pass) {
        ++child;
      }
      if (c->pass <= heap_[child]->pass) {
        break;
      }
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, c);
  }

  void Resift(StrideClient& c) {
    if (c.slot != StrideClient::kInactive) {
      SiftUp(c.slot);
      SiftDown(c.slot);
    }
  }

  std::vector<StrideClient*> heap_;  // active clients, min-heap on pass
};

// A token bucket whose balance may go negative (debt): work is admitted
// while the balance is non-negative and charged afterwards, so a large
// operation can overdraw and then pay back over time.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_sec, double cap)
      : rate_(rate_per_sec), cap_(cap), balance_(cap) {}

  void Refill(Nanos now) {
    if (last_refill_ < 0) {
      last_refill_ = now;
      return;
    }
    double dt = ToSeconds(now - last_refill_);
    balance_ = std::min(cap_, balance_ + rate_ * dt);
    last_refill_ = now;
  }

  void Charge(double cost) { balance_ -= cost; }

  bool CanAdmit() const { return balance_ >= 0; }
  double balance() const { return balance_; }
  double rate() const { return rate_; }

 private:
  double rate_ = 0;
  double cap_ = 0;
  double balance_ = 0;
  Nanos last_refill_ = -1;
};

}  // namespace splitio

#endif  // SRC_SCHED_UTIL_H_
