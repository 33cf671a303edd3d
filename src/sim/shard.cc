#include "src/sim/shard.h"

#include <algorithm>
#include <cassert>
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

// Brackets every entry into a shard: scenario setup, an execution slice,
// or a destination's message injection. Code running inside sees the
// shard's simulator as Simulator::current() and draws request ids from the
// shard's own sequence, so a shard's ids depend on its own activity alone.
//
// Telemetry hooks (sample grid, metrics hub, trace listeners) are parked
// for the duration, so shard runs are untraced: the metrics grid follows
// one clock while each shard has its own, and spans would join the wrong
// transactions, because span building keys a journal transaction by
// (label, tid) and every node's journal runs under the same label.
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
  }

  ~ShardContext() {
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

uint64_t ShardGroup::EventsProcessed() const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    n += s->sim_.events_processed();
  }
  return n;
}

void ShardGroup::Exchange(ShardRunStats* rs) {
  // Deterministic merge: gather every outbox's envelopes, sort them by
  // (destination, deliver_time, sending node, source seq), and inject each
  // destination's run inside one context, destinations in shard-id order.
  // The injection order fixes the (time, seq) positions the messages occupy
  // in the destination event queue, so the merged schedule is a pure
  // function of the messages.
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
  const uint64_t events_before = EventsProcessed();

  // Messages sent during Setup (before any epoch ran) are still parked in
  // the outboxes; deliver them first or an otherwise-idle group would
  // terminate without ever running them.
  Exchange(&rs);

  for (;;) {
    Nanos t = NextEventTime();
    if (t == kNanosMax || t > until) {
      break;
    }
    // Conservative window [t, t+L): no shard can receive a message it does
    // not already hold. Slices are inclusive, so the bound is t+L-1,
    // clamped to the caller's horizon.
    Nanos bound = config_.lookahead < kNanosMax - t
                      ? t + config_.lookahead - 1
                      : kNanosMax - 1;
    Nanos horizon = std::min(bound, until);
    ++rs.epochs;
    for (auto& s : shards_) {
      RunSlice(*s, horizon);
    }
    Exchange(&rs);
  }

  for (auto& s : shards_) {
    rs.causality_violations += s->violations_;
    s->violations_ = 0;
  }
  rs.events = EventsProcessed() - events_before;

  stats_.epochs += rs.epochs;
  stats_.messages += rs.messages;
  stats_.causality_violations += rs.causality_violations;
  stats_.events += rs.events;
  return rs;
}

}  // namespace splitio
