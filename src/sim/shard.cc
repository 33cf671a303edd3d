#include "src/sim/shard.h"

#include <algorithm>
#include <barrier>
#include <cassert>
#include <thread>
#include <tuple>
#include <utility>

#include "src/metrics/sample_hook.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_sink.h"
#include "src/sim/task.h"

namespace splitio {

namespace {

thread_local Shard* g_current_shard = nullptr;

// Wraps a delivered cross-shard message in a root coroutine so the
// destination simulator can resume it at the delivery timestamp through the
// ordinary (time, seq) event queue.
Task<void> RunClosure(std::function<void()> fn) {
  fn();
  co_return;
}

}  // namespace

// Brackets every entry into a shard — scenario setup, an execution slice,
// or nothing at all for message injection (which only touches the event
// queue) — so that code running inside the shard sees the shard's simulator
// as Simulator::current() and its activity lands on the shard's ledgers,
// regardless of which pool thread executes it.
//
// Telemetry hooks (sample grid, metrics hub, trace listeners) are parked
// for the duration: they are owned by the coordinator thread and are not
// safe — or meaningful — to fire from pool threads. The request-id sequence
// is swapped to the shard's own so IDs are a function of shard activity,
// not of which thread ran the slice.
class ShardContext {
 public:
  explicit ShardContext(Shard* s) : shard_(s) {
    prev_shard_ = g_current_shard;
    g_current_shard = s;
    prev_sim_ = Simulator::SwapCurrent(&s->sim_);
    prev_hook_ = sample_hook();
    set_sample_hook(nullptr);
    prev_hub_ = obs::g_metrics_hub;
    obs::g_metrics_hub = nullptr;
    prev_listeners_ = obs::g_trace_listener_count;
    obs::g_trace_listener_count = 0;
    prev_request_seq_ = obs::g_request_id_seq;
    obs::g_request_id_seq = s->request_id_seq_;
    before_ = counters();
  }

  ~ShardContext() {
    // Attribute this slice's counter activity to the shard and put the
    // thread's counters back exactly as found — pool threads accumulate
    // nothing of their own, so totals cannot depend on thread placement.
    Counters delta = counters().Delta(before_);
    counters() = before_;
    shard_->counters_.Add(delta);
    shard_->request_id_seq_ = obs::g_request_id_seq;
    obs::g_request_id_seq = prev_request_seq_;
    obs::g_trace_listener_count = prev_listeners_;
    obs::g_metrics_hub = prev_hub_;
    set_sample_hook(prev_hook_);
    Simulator::SwapCurrent(prev_sim_);
    g_current_shard = prev_shard_;
  }

  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;

 private:
  Shard* shard_;
  Shard* prev_shard_;
  Simulator* prev_sim_;
  SampleHook* prev_hook_;
  obs::MetricsHub* prev_hub_;
  int prev_listeners_;
  uint64_t prev_request_seq_;
  Counters before_;
};

ShardGroup::ShardGroup(const Config& config) : config_(config) {
  assert(config.shards >= 1);
  assert(config.lookahead > 0);
  shards_.reserve(static_cast<size_t>(config.shards));
  for (int i = 0; i < config.shards; ++i) {
    shards_.emplace_back(new Shard(this, i));
  }
}

ShardGroup::~ShardGroup() = default;

int ShardGroup::threads() const {
  int n = config_.threads;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n < 1) {
      n = 1;
    }
  }
  return std::min(n, size());
}

Shard* ShardGroup::Current() { return g_current_shard; }

void ShardGroup::Setup(int i, const std::function<void()>& fn) {
  Shard& s = shard(i);
  ShardContext ctx(&s);
  fn();
}

void ShardGroup::Send(int node, int dst, Nanos deliver_time,
                      std::function<void()> fn) {
  Shard* src = g_current_shard;
  assert(src != nullptr && src->group_ == this && "Send outside a shard");
  assert(dst >= 0 && dst < size());
  if (deliver_time < src->sim_.Now() + config_.lookahead) {
    // The message would land inside an epoch another shard may already have
    // executed past — the conservative contract is broken. Count it (the
    // scenario decides whether that is fatal) and deliver no earlier than
    // the destination's merge point so time still never runs backwards.
    ++src->violations_;
  }
  src->outbox_.push_back(Shard::Envelope{node, dst, deliver_time,
                                         src->send_seq_++, std::move(fn)});
}

void ShardGroup::RunSlice(Shard& s, Nanos horizon) {
  if (s.sim_.NextEventTime() > horizon) {
    return;  // nothing due this epoch; skip the context swap entirely
  }
  ShardContext ctx(&s);
  s.sim_.Run(horizon);
}

Nanos ShardGroup::NextEventTime() const {
  Nanos t = kNanosMax;
  for (const auto& s : shards_) {
    t = std::min(t, s->sim_.NextEventTime());
  }
  return t;
}

void ShardGroup::Exchange(ShardRunStats* rs) {
  // Deterministic merge: gather every outbox's envelopes, sort them by
  // (destination, deliver_time, sending node, source seq), and inject each
  // destination's run inside one context, destinations in shard-id order.
  // The injection order fixes the (time, seq) positions the messages occupy
  // in the destination event queue, so the merged schedule is a pure
  // function of the messages — independent of pool size and thread timing.
  // Keying ties on the sending node rather than on its shard keeps the
  // order the same for any grouping of nodes onto shards: a node's own
  // sends stay in send order (one shard, increasing seq), and different
  // nodes' same-time sends are ordered by node id.
  inbox_.clear();
  for (auto& s : shards_) {
    for (auto& env : s->outbox_) {
      inbox_.push_back(
          Keyed{env.dst, env.deliver_time, env.node, env.seq, &env.fn});
    }
  }
  std::sort(inbox_.begin(), inbox_.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.dst, a.deliver_time, a.node, a.seq) <
           std::tie(b.dst, b.deliver_time, b.node, b.seq);
  });
  for (size_t i = 0; i < inbox_.size();) {
    Shard& s = shard(inbox_[i].dst);
    ShardContext ctx(&s);
    for (; i < inbox_.size() && inbox_[i].dst == s.id_; ++i) {
      // A violating send may carry a stale timestamp; never rewind the
      // destination clock past events it has already executed.
      Nanos at = std::max(inbox_[i].deliver_time, s.sim_.Now());
      s.sim_.SpawnAt(at, RunClosure(std::move(*inbox_[i].fn)));
      ++rs->messages;
    }
  }
  for (auto& s : shards_) {
    s->outbox_.clear();
  }
}

ShardRunStats ShardGroup::Run(Nanos until) {
  ShardRunStats rs;
  // The coordinator's own counter activity (pool machinery, exchange-time
  // allocations) depends on the thread count, so it must not leak into the
  // caller's totals: snapshot here, restore before folding shard deltas.
  Counters outer_before = counters();
  std::vector<uint64_t> events_before(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    events_before[i] = shards_[i]->sim_.events_processed();
  }

  const int nthreads = threads();
  const Nanos lookahead = config_.lookahead;

  // Messages sent during Setup (before any epoch ran) are still parked in
  // the outboxes; deliver them first or an otherwise-idle group would
  // terminate without ever running them.
  Exchange(&rs);

  // Shared epoch state, written by the coordinator between barrier phases
  // (the barrier's synchronization orders those writes against the workers'
  // reads — no atomics needed for horizon_).
  Nanos horizon = 0;
  bool stop = false;

  auto epoch_plan = [&]() -> bool {
    // Returns false when the run is over; otherwise sets `horizon` to this
    // epoch's inclusive slice bound.
    Nanos t = NextEventTime();
    if (t == kNanosMax || t > until) {
      return false;
    }
    // Conservative window [t, t+L): no shard can receive a message it does
    // not already hold. Slices are inclusive, so the bound is t+L-1,
    // clamped to the caller's horizon.
    Nanos bound = t;
    if (lookahead < kNanosMax - t) {
      bound = t + lookahead - 1;
    } else {
      bound = kNanosMax - 1;
    }
    horizon = std::min(bound, until);
    return true;
  };

  if (nthreads <= 1) {
    while (epoch_plan()) {
      ++rs.epochs;
      for (auto& s : shards_) {
        RunSlice(*s, horizon);
      }
      Exchange(&rs);
    }
  } else {
    // Static shard→worker assignment (shard i on worker i % nthreads): the
    // partition is a function of the configuration alone, and each shard's
    // slice is independent of every other shard's during an epoch, so the
    // schedule each shard executes is identical to the sequential loop
    // above. Workers run their shards in increasing id order — not for
    // determinism (any order works) but to keep the access pattern tame.
    //
    // Synchronization: one std::barrier, two phases per epoch. Phase A
    // releases the workers into their slices after the coordinator has
    // planned the epoch (or set `stop`); phase B hands control back to the
    // coordinator for the exchange once every slice is done. The barrier's
    // phase transitions give the necessary happens-before edges for
    // `horizon`/`stop` and for the shard state itself.
    std::barrier<> gate(nthreads + 1);
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(nthreads));
    for (int w = 0; w < nthreads; ++w) {
      workers.emplace_back([&, w]() {
        for (;;) {
          gate.arrive_and_wait();  // phase A: epoch planned
          if (stop) {
            return;
          }
          for (int i = w; i < size(); i += nthreads) {
            RunSlice(*shards_[static_cast<size_t>(i)], horizon);
          }
          gate.arrive_and_wait();  // phase B: slices done
        }
      });
    }
    while (epoch_plan()) {
      ++rs.epochs;
      gate.arrive_and_wait();  // phase A
      gate.arrive_and_wait();  // phase B
      Exchange(&rs);
    }
    stop = true;
    gate.arrive_and_wait();  // phase A: release workers into exit
    for (auto& th : workers) {
      th.join();
    }
  }

  // Fold: discard the coordinator's own activity, then add each shard's
  // accumulated delta in shard-id order. Integer addition in a fixed order
  // makes the result exact and identical for any pool size.
  counters() = outer_before;
  for (auto& s : shards_) {
    counters().Add(s->counters_);
    s->counters_ = Counters{};
    rs.causality_violations += s->violations_;
    s->violations_ = 0;
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    rs.events += shards_[i]->sim_.events_processed() - events_before[i];
  }

  stats_.epochs += rs.epochs;
  stats_.messages += rs.messages;
  stats_.causality_violations += rs.causality_violations;
  stats_.events += rs.events;
  return rs;
}

}  // namespace splitio
