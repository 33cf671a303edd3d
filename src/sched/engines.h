// Policy-primitive engines: the mechanisms of the paper's schedulers, one
// per engine, so ComposedScheduler (composed.h) can mix them per PolicySpec
// axis.
//
// Each engine is a plain struct-like class (no virtual hooks): it holds one
// scheduler's state and logic, and the composed scheduler routes
// SplitScheduler hooks into it. The figure benches pin their schedules
// byte for byte (tests/benchjson_baseline/), so changes here must keep
// them.
//
//   DeadlineEngine  fsync-deadline admission, read deadlines, urgent fsync
//                   writes and writeback triggers over Block-Deadline's
//                   sorted batches (Split-Deadline, §5.2);
//   StrideEngine    stride fair queuing over a configurable queue key
//                   (process or tenant account), write-path admission by
//                   pass slack, read anticipation (AFQ, §5.1);
//   TokenEngine     hierarchical token buckets with split-level accounting:
//                   prompt buffer-dirty charging revised at completion,
//                   debt reads held below the cache (Split-Token, §5.3);
//   ScsEngine       raw syscall-byte token buckets charged at entry (the
//                   SCS baseline, §2.3.3).
#ifndef SRC_SCHED_ENGINES_H_
#define SRC_SCHED_ENGINES_H_

#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "src/block/block_deadline.h"
#include "src/core/scheduler.h"
#include "src/sched/policy.h"
#include "src/sched/util.h"
#include "src/tenant/hier_token.h"

namespace splitio {

// Where a token-held read goes once its account becomes solvent again: the
// composed scheduler's dispatch structure (FIFO, stride, deadline...).
class ReadySink {
 public:
  virtual ~ReadySink() = default;
  virtual void EnqueueReady(BlockRequestPtr req) = 0;
};

// ---------------------------------------------------------------------------
// DeadlineEngine (Split-Deadline, SplitDeadlineSpec).
// ---------------------------------------------------------------------------
class DeadlineEngine {
 public:
  DeadlineEngine(const SplitDeadlineConfig& config, WritebackKind writeback)
      : config_(config),
        writeback_(writeback),
        elevator_({.fifo_batch = config.fifo_batch,
                   .writes_starved = config.writes_starved}) {}

  // Under scheduler-owned writeback, turns the cache's writeback daemon off
  // (the stack starts it after attaching its scheduler) and spawns the
  // owned-writeback loop.
  void Attach(const StackContext& ctx);

  // Split-Pdflush write throttling (no-op under scheduler-owned writeback;
  // not routed here at all under plain daemon writeback).
  Task<void> WriteEntry(Process& proc, int64_t ino, uint64_t offset,
                        uint64_t len);
  Task<void> FsyncEntry(Process& proc, int64_t ino);
  void FsyncExit(Process& proc, int64_t ino);

  void Add(BlockRequestPtr req);
  BlockRequestPtr Next();
  bool Empty() const { return urgent_fifo_.empty() && elevator_.Empty(); }

 private:
  // Estimated device time to flush the file's dirty data (seek-aware).
  Nanos EstimateFsyncCost(int64_t ino) const;

  Task<void> OwnWritebackLoop();
  bool DeadlinePressure() const;

  SplitDeadlineConfig config_;
  WritebackKind writeback_;
  StackContext ctx_;

  // Block level: Block-Deadline's sorted queues and FIFOs, where only
  // reads carry a deadline, plus an urgent FIFO for writes an expiring
  // fsync depends on (journal commits and the fsync's own data flush).
  BlockDeadlineElevator elevator_;
  std::deque<BlockRequestPtr> urgent_fifo_;

  // Fsync admission: pending fsync deadlines, earliest first; admitted but
  // not-yet-finished fsyncs are tracked to detect deadline pressure.
  std::multiset<Nanos> fsync_deadlines_;
  std::multiset<Nanos> fsync_outstanding_;
  Event fsync_turn_;
};

// ---------------------------------------------------------------------------
// StrideEngine (AFQ, AfqSpec).
//
// Queues and passes are keyed by *client*: the submitting pid under
// QueueKey::kPid (the paper's AFQ), or the token account under
// QueueKey::kAccount (tenant-afq hybrid). Account clients map to ids <= -2
// (client = -2 - account) so they can never collide with pids (>= 0) or
// the anonymous no-submitter queue (-1).
// ---------------------------------------------------------------------------
class StrideEngine {
 public:
  StrideEngine(const AfqConfig& config, QueueKey key, bool owns_prelim)
      : config_(config), key_(key), owns_prelim_(owns_prelim) {}

  void Attach(const StackContext& ctx);

  // Blocks `proc` until its pass is within the slack of its peers' minimum.
  Task<void> AdmitWriteWork(Process& proc);

  // Memory hooks (routed only when this engine owns the budget axis).
  void BufferDirty(Process& dirtier, Page& page, bool was_dirty);
  void BufferFree(Page& page);

  void Add(BlockRequestPtr req);
  BlockRequestPtr Next();
  void Complete(const BlockRequest& req);
  Nanos IdleHint() const;
  void OnIdleExpired();
  bool Empty() const;

 private:
  static double Weight(const Process& proc) {
    if (proc.io_class() == IoClass::kIdle) {
      return 0.1;
    }
    return static_cast<double>(8 - proc.priority());
  }

  int32_t ClientOf(const Process& proc) const {
    if (key_ == QueueKey::kAccount && proc.account() >= 0) {
      return -2 - proc.account();
    }
    return proc.pid();
  }
  int32_t ClientOfPid(int32_t pid) const {
    if (key_ == QueueKey::kPid) {
      return pid;
    }
    auto it = pid_client_.find(pid);
    return it == pid_client_.end() ? pid : it->second;
  }

  struct ReadQueue;

  // One record per client: its stride fields (weight, pass, heap slot) and
  // the liveness state the housekeeping sweep reads.
  struct Client : StrideClient {
    // Whether the stride weight has been set from a registered process
    // (kAccount mode: many pids share one client).
    bool weighted = false;
    // A writer of this client sleeps in AdmitWriteWork; it stays active so
    // the pass floor cannot fall below its reach. A flag, not a count: the
    // first writer of the client to be admitted clears it for all of them.
    bool in_admission = false;
    // Stamped by every activation, so set whenever the client is active.
    Nanos last_activity = 0;
    ReadQueue* reads = nullptr;  // its read queue, once it has one
  };

  struct ReadQueue {
    Client* client = nullptr;
    std::deque<BlockRequestPtr> reqs;
  };

  // The client's record, created on first use.
  Client& Record(int32_t client);
  // Learns `proc` (its weight; its client in kAccount mode). Remembers the
  // last pid and account it resolved, and their client: the pages of one
  // write register the same process one after another.
  Client& Register(Process& proc);
  void ChargeCauses(const BlockRequest& req);
  // Charges (or refunds, when negative) `amount` split across `causes`.
  void ChargeRaw(const CauseSet& causes, double amount);

  Task<void> Housekeep();

  AfqConfig config_;
  QueueKey key_;
  // Whether this engine did the preliminary buffer-dirty charging (budget
  // axis = stride-pass); completion revision subtracts prelim only then.
  bool owns_prelim_;
  StackContext ctx_;
  // Client records (node-based: the heap and the read queues point into
  // it), and the active set (clients with queued or in-flight work) that
  // the admission floor is the minimum over.
  std::unordered_map<int32_t, Client> clients_;
  StrideState stride_;
  // pid -> client (kAccount mode only; kPid mode is the identity).
  std::unordered_map<int32_t, int32_t> pid_client_;
  // Register's last process and its client (null until the first call).
  int32_t registered_pid_ = 0;
  int registered_account_ = 0;
  Client* registered_ = nullptr;
  Condition pass_advanced_;

  // Block level: per-client read queues in client-id order (AFQ's dispatch
  // tie-break) + immediate write FIFO.
  std::map<int32_t, ReadQueue> read_queues_;
  std::deque<BlockRequestPtr> write_fifo_;
  // The last sync reader's queue (never the anonymous client's).
  ReadQueue* last_read_ = nullptr;
  Nanos anticipate_until_ = 0;
  uint64_t queued_reads_ = 0;
};

// ---------------------------------------------------------------------------
// TokenEngine (Split-Token, SplitTokenSpec).
// ---------------------------------------------------------------------------
class TokenEngine {
 public:
  explicit TokenEngine(const SplitTokenConfig& config) : config_(config) {}

  // `sink` receives held reads released by the refill loop.
  void Attach(const StackContext& ctx, ReadySink* sink);

  // Write-path syscall throttling: blocks while the account is in debt.
  Task<void> Throttle(Process& proc);

  // Memory hooks: preliminary accounting.
  void BufferDirty(Process& dirtier, Page& page, bool was_dirty);
  void BufferFree(Page& page);

  // Block-level admission: learns accounts and holds debt reads. Returns
  // false when the request was held (the caller must not enqueue it).
  bool AdmitOrHold(BlockRequestPtr& req);
  void Complete(const BlockRequest& req);

  void SetAccountLimit(int account, double bytes_per_sec);
  void SetGroupLimit(int group, double bytes_per_sec);
  void BindAccountToGroup(int account, int group);
  double account_balance(int account) const;
  const HierTokenAccounts& accounts() const { return accounts_; }

 private:
  int AccountOf(int32_t pid) const;
  // Records `proc`'s account in pid_account_, skipping the hash update
  // when `proc` has the pid and account recorded last: the pages of one
  // write come from one process.
  void Learn(const Process& proc);
  void ChargeAccount(int account, double cost);
  // Splits `cost` across the accounts of `causes`.
  void ChargeCauses(const CauseSet& causes, double cost);
  Task<void> RefillLoop();
  void ReleaseHeldReads();

  SplitTokenConfig config_;
  StackContext ctx_;
  ReadySink* sink_ = nullptr;
  HierTokenAccounts accounts_;
  // pid -> account binding, learned from Process objects seen at hooks.
  std::unordered_map<int32_t, int> pid_account_;
  // The binding Learn recorded last (none until its first call).
  bool learned_ = false;
  int32_t learned_pid_ = 0;
  int learned_account_ = 0;
  // Last dirtied page index per inode (sequentiality guess), and the entry
  // of the inode dirtied last (entries are never erased).
  std::unordered_map<int64_t, uint64_t> last_index_;
  int64_t last_index_ino_ = 0;
  uint64_t* last_index_of_ = nullptr;
  std::deque<BlockRequestPtr> held_reads_;
  Event tokens_available_;
};

// ---------------------------------------------------------------------------
// ScsEngine (SCS-Token, ScsTokenSpec).
// ---------------------------------------------------------------------------
class ScsEngine {
 public:
  explicit ScsEngine(const ScsTokenConfig& config) : config_(config) {}

  void Attach(const StackContext& ctx);

  Task<void> ReadEntry(Process& proc, int64_t ino, uint64_t offset,
                       uint64_t len);
  Task<void> WriteEntry(Process& proc, uint64_t len) {
    return AdmitAndCharge(proc, static_cast<double>(len));
  }
  Task<void> FsyncEntry(Process& proc) {
    return AdmitAndCharge(proc, config_.fsync_cost);
  }
  Task<void> MetaEntry(Process& proc) {
    return AdmitAndCharge(proc, config_.fsync_cost);
  }

  void SetAccountLimit(int account, double bytes_per_sec);
  void SetGroupLimit(int group, double bytes_per_sec);
  void BindAccountToGroup(int account, int group);
  double account_balance(int account) const;
  const HierTokenAccounts& accounts() const { return accounts_; }

 private:
  Task<void> AdmitAndCharge(Process& proc, double cost);
  Task<void> RefillLoop();

  ScsTokenConfig config_;
  StackContext ctx_;
  HierTokenAccounts accounts_;
  Event tokens_available_;
};

}  // namespace splitio

#endif  // SRC_SCHED_ENGINES_H_
