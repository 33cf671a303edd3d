#include "src/fs/journal.h"

#include <utility>
#include <vector>

#include "src/device/device.h"
#include "src/metrics/counters.h"
#include "src/obs/trace_sink.h"

namespace splitio {

namespace {

// txn_join: a process (or proxy) tied work to transaction `tid`. Only
// called under obs::TracingActive().
void EmitTxnJoin(Process& cause, int64_t ino, uint64_t tid) {
  obs::TraceEvent e;
  e.type = obs::EventType::kTxnJoin;
  e.pid = cause.pid();
  e.ino = ino;
  e.aux = tid;
  std::span<const int32_t> pids = cause.Causes().pids();
  e.causes.assign(pids.begin(), pids.end());
  obs::EmitEvent(std::move(e));
}

}  // namespace

void Jbd2Journal::Start() {
  Simulator::current().Spawn(CommitLoop());
  Simulator::current().Spawn(CheckpointLoop());
}

void Jbd2Journal::JoinMetadata(Process& cause, int64_t ino, int blocks) {
  running_->has_updates = true;
  running_->meta_blocks += blocks;
  running_->causes.Merge(cause.Causes());
  running_->meta_inodes.insert(ino);
  if (obs::TracingActive()) {
    EmitTxnJoin(cause, ino, running_->id);
  }
}

void Jbd2Journal::AddOrderedInode(Process& cause, int64_t ino) {
  running_->has_updates = true;
  running_->causes.Merge(cause.Causes());
  running_->ordered_inodes.insert(ino);
  if (obs::TracingActive()) {
    EmitTxnJoin(cause, ino, running_->id);
  }
}

bool Jbd2Journal::InodeInRunningTx(int64_t ino) const {
  return running_->meta_inodes.count(ino) > 0 ||
         running_->ordered_inodes.count(ino) > 0;
}

bool Jbd2Journal::InodeInCommittingTx(int64_t ino) const {
  return committing_ != nullptr &&
         (committing_->meta_inodes.count(ino) > 0 ||
          committing_->ordered_inodes.count(ino) > 0);
}

Task<void> Jbd2Journal::WaitCommitting() {
  while (committing_ != nullptr) {
    co_await commit_done_.Wait();
  }
}

Task<int> Jbd2Journal::CommitRunningAndWait() {
  std::shared_ptr<Tx> tx = running_;
  co_await DoCommit(tx);
  co_return tx->error;
}

Task<void> Jbd2Journal::DoCommit(std::shared_ptr<Tx> tx) {
  // Single committer: queue behind any in-flight commit.
  while (committing_ != nullptr) {
    if (tx->committed.is_set()) {
      co_return;
    }
    co_await commit_done_.Wait();
  }
  if (tx->committed.is_set()) {
    co_return;
  }
  if (tx != running_) {
    // Already rotated out; someone else is (or was) committing it.
    co_await tx->committed.Wait();
    co_return;
  }
  committing_ = tx;
  running_ = std::make_shared<Tx>(next_tid_++);

  if (tx->has_updates) {
    // The journal task acts on behalf of every process in the transaction.
    journal_task_->BeginProxy(tx->causes);

    // Ordered mode: all data referenced by the transaction's metadata must
    // be durable before the commit record (Figure 4) — including data from
    // processes unrelated to the fsync that triggered this commit.
    std::vector<int64_t> ordered(tx->ordered_inodes.begin(),
                                 tx->ordered_inodes.end());
    for (int64_t ino : ordered) {
      co_await flush_ordered_(ino);
    }
    if (commit_hook_) {
      commit_hook_(tx->id, ordered);
    }
    if (config_.durability_barriers && !config_.buggy_skip_preflush) {
      // Barrier: the ordered data (and prior metadata) must be on media
      // before the commit record can make the transaction valid.
      int err = co_await SubmitFlushBarrier();
      if (tx->error == 0) {
        tx->error = err;
      }
    }
    int werr = co_await WriteJournalRecord(*tx);
    if (tx->error == 0) {
      tx->error = werr;
    }
    ++counters().journal_commits;
    if (obs::TracingActive()) {
      obs::TraceEvent e;
      e.type = obs::EventType::kTxnCommit;
      e.pid = journal_task_->pid();
      e.aux = tx->id;
      e.result = tx->error;
      std::span<const int32_t> pids = tx->causes.pids();
      e.causes.assign(pids.begin(), pids.end());
      obs::EmitEvent(std::move(e));
    }
    if (config_.durability_barriers) {
      // Barrier: the commit record itself must be durable before anyone is
      // told the transaction committed (fsync acknowledgment).
      int err = co_await SubmitFlushBarrier();
      if (tx->error == 0) {
        tx->error = err;
      }
    }
    journal_task_->EndProxy();

    checkpoint_backlog_.push_back(
        CheckpointEntry{tx->meta_blocks, tx->causes, tx->id});
    backlog_blocks_ += tx->meta_blocks;
    if (backlog_blocks_ >= config_.checkpoint_threshold_blocks) {
      checkpoint_kick_.NotifyAll();
    }
  }
  ++commits_done_;
  tx->committed.Set();
  committing_ = nullptr;
  commit_done_.NotifyAll();
}

Task<int> Jbd2Journal::WriteJournalRecord(const Tx& tx) {
  // Descriptor block + metadata payload + commit block, written
  // sequentially at the journal head.
  uint64_t payload_pages = static_cast<uint64_t>(tx.meta_blocks) + 2;
  uint64_t sectors = payload_pages * (kPageSize / kSectorSize);
  if (journal_cursor_ + sectors > config_.journal_sectors) {
    journal_cursor_ = 0;  // wrap
  }
  auto req = std::make_shared<BlockRequest>();
  req->sector = config_.journal_start_sector + journal_cursor_;
  req->bytes = static_cast<uint32_t>(payload_pages * kPageSize);
  req->is_write = true;
  req->is_journal = true;
  req->submitter = journal_task_;
  req->causes = tx.causes;
  req->journal_tid = tx.id;
  journal_cursor_ += sectors;
  journal_bytes_written_ += req->bytes;
  co_await block_->SubmitAndWait(req);
  co_return req->result;
}

Task<int> Jbd2Journal::SubmitFlushBarrier() {
  auto req = std::make_shared<BlockRequest>();
  req->is_flush = true;
  req->is_write = true;
  req->is_sync = true;
  req->is_journal = true;
  req->submitter = journal_task_;
  req->causes = journal_task_->Causes();
  co_await block_->SubmitAndWait(req);
  co_return req->result;
}

Task<void> Jbd2Journal::CommitLoop() {
  for (;;) {
    co_await Delay(config_.commit_interval);
    if (running_->has_updates && committing_ == nullptr) {
      co_await DoCommit(running_);
    }
  }
}

Task<void> Jbd2Journal::CheckpointLoop() {
  for (;;) {
    co_await checkpoint_kick_.WaitWithTimeout(config_.checkpoint_interval);
    while (!checkpoint_backlog_.empty()) {
      CheckpointEntry entry = std::move(checkpoint_backlog_.front());
      checkpoint_backlog_.pop_front();
      backlog_blocks_ -= entry.blocks;
      // In-place metadata writes scattered over the metadata area; the
      // checkpointer is a proxy for the transaction's causes.
      checkpoint_task_->BeginProxy(entry.causes);
      int remaining = entry.blocks;
      uint64_t offset = (entry.tid * 797) % (1 << 16);
      while (remaining > 0) {
        int batch = std::min(remaining, 16);
        auto req = std::make_shared<BlockRequest>();
        req->sector = config_.metadata_area_sector +
                      offset * (kPageSize / kSectorSize);
        req->bytes = static_cast<uint32_t>(batch) * kPageSize;
        req->is_write = true;
        req->submitter = checkpoint_task_;
        req->causes = entry.causes;
        co_await block_->SubmitAndWait(req);
        remaining -= batch;
        offset = (offset + 131) % (1 << 16);
      }
      checkpoint_task_->EndProxy();
    }
  }
}

}  // namespace splitio
