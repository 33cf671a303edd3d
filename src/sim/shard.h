// Sharded parallel simulation: one discrete-event Simulator per shard,
// executed on a fixed-size thread pool under conservative time
// synchronization (LiveStack-style).
//
// The model: a cluster scenario is decomposed into shards (e.g. one per
// DFS worker node, or a handful of nodes per shard). Each shard owns a
// detached Simulator plus whatever simulation state lives on it (storage
// stacks, processes, coroutines). Shards never touch each other's state
// directly — all cross-shard interaction goes through `ShardGroup::Send`,
// which records a timestamped message in the sending shard's outbox.
//
// Execution proceeds in epochs of `lookahead` simulated nanoseconds. The
// protocol is conservative: every cross-shard message must be delivered at
// least `lookahead` after it is sent (the inter-node network/RPC latency
// provides the slack), so during the epoch [T, T+L) no shard can receive a
// message it does not already know about. Each epoch:
//
//   1. every shard independently runs its simulator up to (excluding) T+L
//      — in parallel on the pool, or inline in shard-id order;
//   2. barrier;
//   3. the coordinator drains all outboxes and injects each message into
//      its destination simulator at the message's delivery timestamp, in
//      (delivery time, sending node, per-source sequence) order.
//
// Determinism: within an epoch a shard's trajectory depends only on its own
// state and its already-injected inbox, so thread scheduling cannot change
// it; the merge order in step 3 is a pure function of the messages; and
// per-slice counter deltas are folded in shard-id order. A parallel run is
// therefore byte-identical to the sequential (threads=1) run for a fixed
// shard assignment — tables, counters, and BENCHJSON alike (pinned by the
// shard_determinism ctest). Because the merge orders same-time messages by
// the node that sent them, not by the shard hosting that node, a scenario
// whose nodes share no state also simulates the same timeline for any
// grouping of nodes onto shards (allocation counts aside).
//
// A send whose delivery timestamp violates the lookahead contract (i.e.
// would land inside the current epoch of another shard) is counted as a
// causality violation; scenarios treat any nonzero count as fatal. This is
// the negative-control hook: perturbing the lookahead above the real
// minimum latency must trip it.
#ifndef SRC_SIM_SHARD_H_
#define SRC_SIM_SHARD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/metrics/counters.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace splitio {

class ShardGroup;

// One shard: a detached simulator plus the bookkeeping the group needs to
// keep parallel execution deterministic (outboxes, per-slice counter folds,
// a private request-id sequence).
class Shard {
 public:
  int id() const { return id_; }
  Simulator& sim() { return sim_; }
  uint64_t events_processed() const { return sim_.events_processed(); }

  // Counter activity attributed to this shard so far (every execution
  // slice's delta, folded). Reset when the owning ShardGroup::Run folds the
  // totals into the calling thread's counters.
  const Counters& counters() const { return counters_; }

 private:
  friend class ShardGroup;
  friend class ShardContext;

  struct Envelope {
    int node;  // sending node (merge tie-break before seq)
    int dst;
    Nanos deliver_time;
    uint64_t seq;  // per-source send sequence (deterministic tie-break)
    std::function<void()> fn;
  };

  Shard(ShardGroup* group, int id)
      : group_(group), id_(id), sim_(Simulator::Detached{}) {}

  ShardGroup* group_;
  int id_;
  Simulator sim_;
  Counters counters_{};
  uint64_t request_id_seq_ = 0;  // swapped into obs::g_request_id_seq
  uint64_t send_seq_ = 0;
  uint64_t violations_ = 0;
  // This shard's sends since the last exchange, to any destination. Only
  // the shard itself appends; only the coordinator drains.
  std::vector<Envelope> outbox_;
};

struct ShardRunStats {
  uint64_t epochs = 0;                // conservative synchronization rounds
  uint64_t messages = 0;              // cross-shard envelopes delivered
  uint64_t causality_violations = 0;  // sends that broke the lookahead bound
  uint64_t events = 0;                // wake-ups processed across all shards
};

class ShardGroup {
 public:
  struct Config {
    int shards = 1;
    // Conservative synchronization window. Must be <= the minimum latency
    // of every cross-shard message, or sends are flagged as causality
    // violations.
    Nanos lookahead = Usec(500);
    // Pool size for parallel slices. 1 = run shards inline in id order
    // (the sequential reference); 0 = one thread per hardware core, capped
    // at the shard count. Any value produces byte-identical results.
    int threads = 1;
  };

  explicit ShardGroup(const Config& config);
  ~ShardGroup();
  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int size() const { return static_cast<int>(shards_.size()); }
  Shard& shard(int i) { return *shards_[static_cast<size_t>(i)]; }
  Nanos lookahead() const { return config_.lookahead; }
  int threads() const;  // resolved pool size

  // Runs `fn` inside shard `i`'s context: the shard's simulator is current,
  // telemetry hooks are parked, and counter activity is attributed to the
  // shard. Use for scenario construction (building stacks, spawning root
  // coroutines) before Run.
  void Setup(int i, const std::function<void()>& fn);

  // Sends a cross-shard message from scenario node `node` (the machine
  // whose code is sending; a node lives on one shard): `fn` executes inside
  // shard `dst` at simulated time `deliver_time` (it may spawn coroutines,
  // set latches, etc.). Must be called while executing inside a shard of
  // this group; `deliver_time` must be >= Now() + lookahead or the send is
  // counted as a causality violation (still delivered, never reordered
  // backwards). Sending to the caller's own shard is allowed and goes
  // through the same deterministic barrier exchange. Same-time messages to
  // one shard execute in (node, send order) order wherever the nodes live.
  void Send(int node, int dst, Nanos deliver_time, std::function<void()> fn);

  // The shard currently executing on this thread (inside Setup, a slice,
  // or a delivered message), or null.
  static Shard* Current();

  // Runs every shard until global quiescence or past `until`, whichever
  // comes first. Returns this run's stats; cumulative totals are in
  // stats(). On return the per-shard counter deltas have been folded into
  // the calling thread's counters() in shard-id order, and coordinator-side
  // bookkeeping (pool machinery) is excluded, so the fold is byte-identical
  // for any pool size.
  ShardRunStats Run(Nanos until = kNanosMax);

  const ShardRunStats& stats() const { return stats_; }

 private:
  // One shard's conservative slice: run its simulator up to and including
  // `horizon` inside the shard's context. Safe to call concurrently for
  // distinct shards.
  void RunSlice(Shard& s, Nanos horizon);

  // Earliest pending wake-up across all shards (kNanosMax if none).
  Nanos NextEventTime() const;

  // Barrier phase: drain every outbox into the destination simulators in
  // (deliver_time, sending node, src seq) order per destination, in
  // O(shards + messages log messages). Coordinator thread only.
  void Exchange(ShardRunStats* rs);

  // One drained envelope, keyed by its merge position.
  struct Keyed {
    int dst;
    Nanos deliver_time;
    int node;
    uint64_t seq;
    std::function<void()>* fn;
  };

  Config config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Keyed> inbox_;  // Exchange scratch, reused across epochs
  ShardRunStats stats_;
};

}  // namespace splitio

#endif  // SRC_SIM_SHARD_H_
