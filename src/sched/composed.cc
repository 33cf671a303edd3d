#include "src/sched/composed.h"

#include <utility>

namespace splitio {

ComposedScheduler::ComposedScheduler(PolicySpec spec) : spec_(std::move(spec)) {
  if (spec_.dispatch == DispatchKind::kStride ||
      spec_.budget == BudgetKind::kStridePass) {
    stride_.emplace(spec_.stride, spec_.key,
                    spec_.budget == BudgetKind::kStridePass);
  }
  if (spec_.dispatch == DispatchKind::kDeadline) {
    deadline_.emplace(spec_.deadline, spec_.writeback);
  }
  if (spec_.budget == BudgetKind::kHierTokens) {
    token_.emplace(spec_.token);
  }
  if (spec_.budget == BudgetKind::kSyscallTokens) {
    scs_.emplace(spec_.scs);
  }
  if (spec_.dispatch == DispatchKind::kFifo) {
    fifo_.emplace();
  }
}

void ComposedScheduler::Attach(const StackContext& ctx) {
  SplitScheduler::Attach(ctx);
  if (stride_) {
    stride_->Attach(ctx);
  }
  if (deadline_) {
    deadline_->Attach(ctx);
  }
  if (token_) {
    token_->Attach(ctx, this);
  }
  if (scs_) {
    scs_->Attach(ctx);
  }
}

// ---------------- System-call hooks ----------------

Task<void> ComposedScheduler::Sequence(Task<void> admit, Task<void> then) {
  co_await std::move(admit);
  co_await std::move(then);
}

Task<void> ComposedScheduler::OnWriteEntry(Process& proc, int64_t ino,
                                           uint64_t offset, uint64_t len) {
  bool ddl = DeadlineWriteEntry();
  if (spec_.budget == BudgetKind::kStridePass) {
    return ddl ? Sequence(stride_->AdmitWriteWork(proc),
                          deadline_->WriteEntry(proc, ino, offset, len))
               : stride_->AdmitWriteWork(proc);
  }
  if (token_) {
    return ddl ? Sequence(token_->Throttle(proc),
                          deadline_->WriteEntry(proc, ino, offset, len))
               : token_->Throttle(proc);
  }
  if (scs_) {
    return ddl ? Sequence(scs_->WriteEntry(proc, len),
                          deadline_->WriteEntry(proc, ino, offset, len))
               : scs_->WriteEntry(proc, len);
  }
  if (ddl) {
    return deadline_->WriteEntry(proc, ino, offset, len);
  }
  return SplitScheduler::OnWriteEntry(proc, ino, offset, len);
}

Task<void> ComposedScheduler::OnReadEntry(Process& proc, int64_t ino,
                                          uint64_t offset, uint64_t len) {
  if (scs_) {
    return scs_->ReadEntry(proc, ino, offset, len);
  }
  return SplitScheduler::OnReadEntry(proc, ino, offset, len);
}

Task<void> ComposedScheduler::OnFsyncEntry(Process& proc, int64_t ino) {
  bool ddl = deadline_.has_value();
  if (spec_.budget == BudgetKind::kStridePass) {
    return ddl ? Sequence(stride_->AdmitWriteWork(proc),
                          deadline_->FsyncEntry(proc, ino))
               : stride_->AdmitWriteWork(proc);
  }
  if (token_) {
    return ddl ? Sequence(token_->Throttle(proc),
                          deadline_->FsyncEntry(proc, ino))
               : token_->Throttle(proc);
  }
  if (scs_) {
    return ddl ? Sequence(scs_->FsyncEntry(proc),
                          deadline_->FsyncEntry(proc, ino))
               : scs_->FsyncEntry(proc);
  }
  if (ddl) {
    return deadline_->FsyncEntry(proc, ino);
  }
  return SplitScheduler::OnFsyncEntry(proc, ino);
}

void ComposedScheduler::OnFsyncExit(Process& proc, int64_t ino) {
  if (deadline_) {
    deadline_->FsyncExit(proc, ino);
  }
}

Task<void> ComposedScheduler::OnMetaEntry(Process& proc, MetaOp op,
                                          const std::string& path) {
  if (spec_.budget == BudgetKind::kStridePass) {
    return stride_->AdmitWriteWork(proc);
  }
  if (token_) {
    return token_->Throttle(proc);
  }
  if (scs_) {
    return scs_->MetaEntry(proc);
  }
  return SplitScheduler::OnMetaEntry(proc, op, path);
}

// ---------------- Memory hooks ----------------

void ComposedScheduler::OnBufferDirty(Process& dirtier, Page& page,
                                      bool was_dirty, const CauseSet& prev) {
  (void)prev;
  switch (spec_.tag) {
    case TagRule::kNone:
      break;
    case TagRule::kCount:
      ++dirty_events_;
      break;
    case TagRule::kCauses:
      if (spec_.budget == BudgetKind::kStridePass) {
        stride_->BufferDirty(dirtier, page, was_dirty);
      } else if (token_) {
        token_->BufferDirty(dirtier, page, was_dirty);
      }
      break;
  }
}

void ComposedScheduler::OnBufferFree(Page& page) {
  if (spec_.tag != TagRule::kCauses) {
    return;
  }
  if (spec_.budget == BudgetKind::kStridePass) {
    stride_->BufferFree(page);
  } else if (token_) {
    token_->BufferFree(page);
  }
}

// ---------------- Block hooks ----------------

void ComposedScheduler::EnqueueReady(BlockRequestPtr req) {
  switch (spec_.dispatch) {
    case DispatchKind::kFifo:
      fifo_->push_back(std::move(req));
      break;
    case DispatchKind::kStride:
      stride_->Add(std::move(req));
      break;
    case DispatchKind::kDeadline:
      deadline_->Add(std::move(req));
      break;
    default:
      break;  // legacy dispatch never builds a ComposedScheduler
  }
}

void ComposedScheduler::Add(BlockRequestPtr req) {
  if (token_ && !token_->AdmitOrHold(req)) {
    return;  // held below dispatch until the account is solvent
  }
  EnqueueReady(std::move(req));
}

BlockRequestPtr ComposedScheduler::Next() {
  switch (spec_.dispatch) {
    case DispatchKind::kFifo: {
      if (fifo_->empty()) {
        return nullptr;
      }
      BlockRequestPtr req = std::move(fifo_->front());
      fifo_->pop_front();
      return req;
    }
    case DispatchKind::kStride:
      return stride_->Next();
    case DispatchKind::kDeadline:
      return deadline_->Next();
    default:
      return nullptr;
  }
}

void ComposedScheduler::OnComplete(const BlockRequest& req) {
  if (spec_.dispatch == DispatchKind::kStride) {
    stride_->Complete(req);
  }
  if (token_) {
    token_->Complete(req);
  }
}

Nanos ComposedScheduler::IdleHint() const {
  if (spec_.dispatch == DispatchKind::kStride) {
    return stride_->IdleHint();
  }
  return 0;
}

void ComposedScheduler::OnIdleExpired() {
  if (spec_.dispatch == DispatchKind::kStride) {
    stride_->OnIdleExpired();
  }
}

bool ComposedScheduler::Empty() const {
  switch (spec_.dispatch) {
    case DispatchKind::kFifo:
      // Token-held reads are intentionally not counted (the dispatch loop
      // is restarted by the refill loop's KickDispatcher) — matches the
      // historical split-token behavior.
      return fifo_->empty();
    case DispatchKind::kStride:
      return stride_->Empty();
    case DispatchKind::kDeadline:
      return deadline_->Empty();
    default:
      return true;
  }
}

// ---------------- Unified token-budget API ----------------

void ComposedScheduler::SetAccountLimit(int account, double bytes_per_sec) {
  if (token_) {
    token_->SetAccountLimit(account, bytes_per_sec);
  } else if (scs_) {
    scs_->SetAccountLimit(account, bytes_per_sec);
  }
}

void ComposedScheduler::SetGroupLimit(int group, double bytes_per_sec) {
  if (token_) {
    token_->SetGroupLimit(group, bytes_per_sec);
  } else if (scs_) {
    scs_->SetGroupLimit(group, bytes_per_sec);
  }
}

void ComposedScheduler::BindAccountToGroup(int account, int group) {
  if (token_) {
    token_->BindAccountToGroup(account, group);
  } else if (scs_) {
    scs_->BindAccountToGroup(account, group);
  }
}

double ComposedScheduler::account_balance(int account) const {
  return token_ ? token_->account_balance(account)
                : scs_->account_balance(account);
}

const HierTokenAccounts& ComposedScheduler::accounts() const {
  return token_ ? token_->accounts() : scs_->accounts();
}

}  // namespace splitio
