// Scheduler building blocks: stride scheduling state and token buckets.
#ifndef SRC_SCHED_UTIL_H_
#define SRC_SCHED_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/sim/sync.h"
#include "src/sim/time.h"

namespace splitio {

// Stride-scheduling passes (Waldspurger & Weihl). Each client advances its
// pass by charge/weight; clients with the minimum pass are served first.
// Joining clients start at the current global pass so idle periods do not
// bank credit.
//
// The *active* clients (callers decide what active means) are indexed by a
// binary min-heap on pass, so the minimum active pass is O(1). Invariant:
// an entry is active iff its `slot` is its index in `heap_`, and every
// pass change of an active entry re-sifts it before returning. The heap
// holds pointers into `entries_` (unordered_map nodes never move), and its
// capacity is kept at least the number of known clients, so once every
// client has been seen no operation allocates.
class StrideState {
 public:
  StrideState() = default;
  StrideState(const StrideState&) = delete;  // heap_ points into entries_
  StrideState& operator=(const StrideState&) = delete;

  void SetWeight(int32_t client, double weight) {
    Touch(client).weight = std::max(weight, 1e-9);
  }

  // Charges `cost` to `client` (auto-registers with weight 1); a negative
  // cost is a refund.
  void Charge(int32_t client, double cost) {
    Entry& e = Touch(client);
    e.pass += cost / e.weight;
    Resift(e);
  }

  // The client's pass, normalized to start at the global floor.
  double Pass(int32_t client) { return Touch(client).pass; }

  bool Known(int32_t client) const { return entries_.count(client) > 0; }

  // Raises the client's pass to at least `floor` — used when a client
  // re-activates after idling, so idle time does not bank credit.
  void SetPassAtLeast(int32_t client, double floor) {
    Entry& e = Touch(client);
    if (floor > e.pass) {
      e.pass = floor;
      Resift(e);
    }
  }

  // Adds `client` to the active set in O(log n); false if already active.
  bool Activate(int32_t client) {
    Entry& e = Touch(client);
    if (e.slot != kInactive) {
      return false;
    }
    heap_.push_back(&e);
    SiftUp(heap_.size() - 1);
    return true;
  }

  // Deactivates every active client for which `drop(client)` holds, in
  // one O(active) sweep that rebuilds the heap.
  template <typename Pred>
  void DeactivateIf(Pred&& drop) {
    size_t kept = 0;
    for (Entry* e : heap_) {
      if (drop(e->client)) {
        e->slot = kInactive;
      } else {
        Place(kept++, e);
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
  static constexpr size_t kInactive = static_cast<size_t>(-1);

  struct Entry {
    double weight = 1.0;
    double pass = 0;
    int32_t client = 0;
    size_t slot = kInactive;  // index in heap_ while active
  };

  Entry& Touch(int32_t client) {
    auto [it, inserted] = entries_.try_emplace(client);
    if (inserted) {
      it->second.client = client;
      if (heap_.capacity() < entries_.size()) {
        heap_.reserve(2 * entries_.size());
      }
    }
    return it->second;
  }

  void Place(size_t i, Entry* e) {
    heap_[i] = e;
    e->slot = i;
  }

  void SiftUp(size_t i) {
    Entry* e = heap_[i];
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (heap_[parent]->pass <= e->pass) {
        break;
      }
      Place(i, heap_[parent]);
      i = parent;
    }
    Place(i, e);
  }

  void SiftDown(size_t i) {
    Entry* e = heap_[i];
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= heap_.size()) {
        break;
      }
      if (child + 1 < heap_.size() &&
          heap_[child + 1]->pass < heap_[child]->pass) {
        ++child;
      }
      if (e->pass <= heap_[child]->pass) {
        break;
      }
      Place(i, heap_[child]);
      i = child;
    }
    Place(i, e);
  }

  void Resift(Entry& e) {
    if (e.slot != kInactive) {
      SiftUp(e.slot);
      SiftDown(e.slot);
    }
  }

  std::unordered_map<int32_t, Entry> entries_;
  std::vector<Entry*> heap_;  // active entries, min-heap on pass
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
  void Refund(double amount) { balance_ = std::min(cap_, balance_ + amount); }

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
