// ComposedScheduler: a SplitScheduler that interprets a PolicySpec by
// routing the framework's hooks into the policy-primitive engines
// (engines.h) the spec's axes select.
//
// The paper's split schedulers are canonical specs (AfqSpec,
// SplitDeadlineSpec, SplitTokenSpec, ScsTokenSpec, SplitNoopSpec); hybrids
// — deadline dispatch over token budgets, stride fair queuing between
// tenant accounts — are just different specs. For a canonical spec exactly
// one engine engages and the hook routing collapses to a direct call into
// it.
#ifndef SRC_SCHED_COMPOSED_H_
#define SRC_SCHED_COMPOSED_H_

#include <deque>
#include <optional>
#include <string>

#include "src/core/scheduler.h"
#include "src/sched/engines.h"
#include "src/sched/policy.h"

namespace splitio {

class ComposedScheduler : public SplitScheduler, private ReadySink {
 public:
  // `spec` must satisfy ValidateSpec and use a non-legacy dispatch kind
  // (legacy dispatch specs build plain elevators; see MakeSched).
  explicit ComposedScheduler(PolicySpec spec);

  const PolicySpec& spec() const { return spec_; }

  std::string name() const override { return spec_.name; }
  void Attach(const StackContext& ctx) override;

  // ---- System-call hooks: budget admission, then (for deadline specs
  // owning writeback) the dirty-data throttle / fsync deadline queue.
  Task<void> OnWriteEntry(Process& proc, int64_t ino, uint64_t offset,
                          uint64_t len) override;
  Task<void> OnReadEntry(Process& proc, int64_t ino, uint64_t offset,
                         uint64_t len) override;
  Task<void> OnFsyncEntry(Process& proc, int64_t ino) override;
  void OnFsyncExit(Process& proc, int64_t ino) override;
  Task<void> OnMetaEntry(Process& proc, MetaOp op,
                         const std::string& path) override;

  // ---- Memory hooks: routed by the tag rule to whichever engine owns the
  // budget axis.
  void OnBufferDirty(Process& dirtier, Page& page, bool was_dirty,
                     const CauseSet& prev) override;
  void OnBufferFree(Page& page) override;

  // ---- Block hooks: token admission gate, then the dispatch structure.
  void Add(BlockRequestPtr req) override;
  BlockRequestPtr Next() override;
  void OnComplete(const BlockRequest& req) override;
  Nanos IdleHint() const override;
  void OnIdleExpired() override;
  bool Empty() const override;

  // ---- Unified token-budget API (split-token / scs-token / hybrids).
  // The setters and accessors other than has_token_budget() require a
  // token budget axis (callers gate on has_token_budget()).
  bool has_token_budget() const {
    return token_.has_value() || scs_.has_value();
  }
  void SetAccountLimit(int account, double bytes_per_sec);
  void SetGroupLimit(int group, double bytes_per_sec);
  void BindAccountToGroup(int account, int group);
  double account_balance(int account) const;
  const HierTokenAccounts& accounts() const;

  // Tag-rule kCount probe (split-noop's framework-overhead counter).
  uint64_t dirty_events() const { return dirty_events_; }

 private:
  // ReadySink: where token-released reads (re)enter dispatch, bypassing the
  // admission gate they already passed.
  void EnqueueReady(BlockRequestPtr req) override;

  // Runs `admit` to completion, then `then` — the hybrid entry-hook shape
  // (budget admission before the deadline discipline's own entry logic).
  static Task<void> Sequence(Task<void> admit, Task<void> then);

  // Whether write/fsync entry hooks route into the deadline engine (its
  // entry logic exists only when it owns writeback or throttles dirty
  // data; fsync deadline ordering applies whenever it dispatches).
  bool DeadlineWriteEntry() const {
    return deadline_.has_value() &&
           spec_.writeback != WritebackKind::kDaemon;
  }

  PolicySpec spec_;
  std::optional<StrideEngine> stride_;
  std::optional<DeadlineEngine> deadline_;
  std::optional<TokenEngine> token_;
  std::optional<ScsEngine> scs_;
  std::optional<std::deque<BlockRequestPtr>> fifo_;
  uint64_t dirty_events_ = 0;
};

}  // namespace splitio

#endif  // SRC_SCHED_COMPOSED_H_
