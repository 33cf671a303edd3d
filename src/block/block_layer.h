// The block layer: request queue + dispatch machinery in front of a device.
//
// One design serves every stack: N *hardware dispatch contexts*, each a
// loop that pulls requests from the elevator and sustains up to
// `queue_depth` commands on the device. The legacy configuration
// (BlockMqConfig::enabled false, what every figure bench runs) is one
// context at depth 1, which is Linux's single-queue block layer.
// Single-queue elevators (Elevator::mq_aware() false) always run behind
// one context; mq-aware ones (the split schedulers) fan out across all of
// them.
//
// Submission follows one of two staging rules:
//
//  - One context: the request is merged into or added to the elevator at
//    once, then the context is kicked. This is how Linux blk-mq hands a
//    request to an attached I/O scheduler, and it matters for correctness:
//    schedulers look at their queues from their own timers (split-deadline's
//    own writeback yields to queued deadline-bound reads), so a request that
//    arrives while the device is busy must already be in the elevator.
//  - Two or more contexts: the request is staged in the FIFO of the context
//    its submitter maps to (pid % contexts; no submitter: context 0), and
//    that context drains its FIFO into the elevator, in arrival order,
//    before its next Next().
//
// One context at depth 1 services each request inline: the loop awaits the
// device's serial path, and flushes are plain device flushes. With more than
// one command in flight, dispatch goes through the device's command queue
// (BlockDevice::ExecuteQueued — NCQ selection / channel parallelism happens
// there), and a flush request is a global barrier: it drains every
// in-flight command on every context before the device cache flush, so
// crash-consistency ordering holds no matter the topology.
//
// Per-priority submission counters reproduce the "requests seen by CFQ per
// priority" measurement of Figure 3 (right).
#ifndef SRC_BLOCK_BLOCK_LAYER_H_
#define SRC_BLOCK_BLOCK_LAYER_H_

#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/block/elevator.h"
#include "src/block/request.h"
#include "src/device/device.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace splitio {

// Queue topology between the block layer and the device. The default is
// one context at depth 1 — the legacy single-queue configuration every
// existing experiment was calibrated against.
struct BlockMqConfig {
  // Off: one context at depth 1, whatever the other two fields say. On:
  // the contexts and depth below.
  bool enabled = false;
  // Hardware dispatch contexts. Elevators that are not mq-aware are run
  // behind a single context regardless of this setting. With two or more,
  // submissions are staged per context (see above).
  int nr_hw_queues = 1;
  // In-flight device commands each hardware context may sustain; the
  // device's command queue depth is set to nr_hw_queues * queue_depth.
  int queue_depth = 1;
};

class BlockLayer {
 public:
  // Does not take ownership of the elevator (the enclosing stack owns it —
  // for split schedulers the elevator is the scheduler object itself).
  BlockLayer(BlockDevice* device, Elevator* elevator,
             const BlockMqConfig& mq = BlockMqConfig());

  // Spawns one dispatch loop per context in the current simulator. Call
  // once.
  void Start();

  // Hands a request to the elevator (one context) or to its context's
  // staging FIFO (two or more) and kicks that context. The caller may
  // co_await req->done.Wait() for completion.
  void Submit(BlockRequestPtr req);

  // Convenience: submit and wait for completion.
  Task<void> SubmitAndWait(BlockRequestPtr req);

  // Wakes every context: call when an elevator makes previously-held
  // requests dispatchable without a new submission (e.g. token refill).
  void KickDispatcher() {
    for (HwQueue& hw : hw_queues_) {
      hw.kick.NotifyAll();
    }
  }

  Elevator& elevator() { return *elevator_; }
  BlockDevice& device() { return *device_; }

  // Hardware dispatch contexts (1 on the legacy configuration and for
  // single-queue elevators).
  int nr_hw_queues() const { return static_cast<int>(hw_queues_.size()); }
  // Commands currently dispatched to the device across all contexts.
  int inflight() const { return total_inflight_; }

  // Queue-depth telemetry (always on — plain integer bookkeeping): requests
  // currently held in the elevator, requests staged in context FIFOs (0
  // with one context), and the run-wide peak of their sum. Feeds the
  // telemetry gauges (src/obs/metrics) and the peak-queue-depth cost axis
  // in sched_search.
  int elevator_queued() const { return elv_queued_; }
  int sw_staged() const { return sw_staged_; }
  int queue_peak() const { return queue_peak_; }

  // Number of requests submitted whose *submitter* had best-effort priority
  // p — what a block-level scheduler believes about request ownership.
  uint64_t submitted_by_priority(int p) const {
    return submitted_by_priority_.at(static_cast<size_t>(p));
  }
  uint64_t total_submitted() const { return total_submitted_; }
  uint64_t total_completed() const { return total_completed_; }
  uint64_t total_merged() const { return total_merged_; }

  // Completion listeners for split schedulers (accounting revision, §3.2)
  // and instrumentation (the crash monitor, bench probes). Invoked after
  // elevator->OnComplete, in registration order. set_ replaces all hooks;
  // add_ appends.
  using CompletionHook = std::function<void(const BlockRequest&)>;
  void set_completion_hook(CompletionHook hook) {
    completion_hooks_.clear();
    completion_hooks_.push_back(std::move(hook));
  }
  void add_completion_hook(CompletionHook hook) {
    completion_hooks_.push_back(std::move(hook));
  }

  // Block-level fault hook, consulted at dispatch before the request reaches
  // the device: return 0 to proceed, or a negative errno to fail the request
  // without any device I/O (models errors in the block layer itself, e.g. a
  // failed bio). nullptr disables.
  using BlockFaultHook = std::function<int(const BlockRequest&)>;
  void set_fault_hook(BlockFaultHook hook) { fault_hook_ = std::move(hook); }

  // Negative control for the stress oracles: every `n`th finished request
  // silently loses its completion — no counters, no elevator OnComplete, no
  // hooks, and the waiter's latch never fires (a lost completion interrupt).
  // 0 disables. Test-only; never set on a production stack.
  void set_drop_completion_interval(uint64_t n) {
    drop_completion_interval_ = n;
  }

 private:
  // One hardware dispatch context. Contexts live in a vector sized once at
  // construction: coroutines hold references across suspension points, so
  // addresses must be stable.
  struct HwQueue {
    Event kick;  // new work, freed slot, or barrier release
    int inflight = 0;
    // Requests staged for this context in arrival order (two or more
    // contexts only); drained into the elevator before each Next().
    std::vector<BlockRequestPtr> staged;
  };

  // One per context: drains the context's staged requests, then pulls the
  // elevator's next request and dispatches it (inline when serial_).
  Task<void> ContextLoop(int hw);
  // Services one command through the device's command queue (more than one
  // command can be in flight).
  Task<void> DispatchQueued(int hw, BlockRequestPtr req);
  // Global barrier: drain all in-flight commands, flush the device cache,
  // complete `req`, release every context.
  Task<void> FlushBarrier(BlockRequestPtr req);
  // Merges `req` into a queued request (false) or adds it to the elevator
  // (true).
  bool MergeOrAdd(BlockRequestPtr req);
  // Moves context `q`'s staged requests into the elevator, in arrival order.
  void DrainStaged(HwQueue& q);
  // Wakes sibling contexts that have free slots (work hand-off when this
  // context is saturated but the elevator still has requests).
  void KickIdleSiblings(int hw);
  // Runs the fault hook: on a nonzero errno the request fails here, with no
  // device I/O. Returns that errno.
  int Fault(BlockRequest& req);

  // Completion bookkeeping: counters, elevator OnComplete, completion
  // hooks, latch, merged children.
  void FinishRequest(const BlockRequestPtr& req);

  BlockDevice* device_;
  Elevator* elevator_;
  std::array<uint64_t, 8> submitted_by_priority_ = {};
  uint64_t total_submitted_ = 0;
  uint64_t total_completed_ = 0;
  uint64_t total_merged_ = 0;
  std::vector<CompletionHook> completion_hooks_;
  BlockFaultHook fault_hook_;
  uint64_t drop_completion_interval_ = 0;
  uint64_t finish_calls_ = 0;

  // --- queue-depth telemetry ---
  void NoteQueued() {
    int depth = elv_queued_ + sw_staged_;
    if (depth > queue_peak_) {
      queue_peak_ = depth;
    }
  }
  int elv_queued_ = 0;
  int sw_staged_ = 0;
  int queue_peak_ = 0;

  // --- dispatch contexts ---
  std::vector<HwQueue> hw_queues_;
  int queue_depth_ = 1;
  // One context at depth 1: dispatch runs inline in the context's loop.
  bool serial_ = true;
  int total_inflight_ = 0;
  bool flush_draining_ = false;
  Event drain_event_;  // notified when total_inflight_ reaches 0
  Event flush_done_;   // notified when a flush barrier completes
};

}  // namespace splitio

#endif  // SRC_BLOCK_BLOCK_LAYER_H_
