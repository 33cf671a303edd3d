#include "src/fs/xfs.h"

#include <algorithm>
#include <utility>

#include "src/metrics/counters.h"
#include "src/obs/trace_sink.h"
#include "src/sim/simulator.h"

namespace splitio {

XfsSim::XfsSim(PageCache* cache, BlockLayer* block, Process* writeback_task,
               Process* log_task, const Layout& layout,
               const LogConfig& log_config)
    : FsBase(cache, block, writeback_task, layout),
      log_task_(log_task),
      log_config_(log_config) {}

void XfsSim::Mount() { Simulator::current().Spawn(PeriodicFlushLoop()); }

void XfsSim::JournalMetadata(Process& cause, int64_t ino, int blocks) {
  pending_.push_back(LogItem{ino, blocks, cause.Causes(), next_lsn_++});
  if (obs::TracingActive()) {
    obs::TraceEvent e;
    e.type = obs::EventType::kTxnJoin;
    e.pid = cause.pid();
    e.ino = ino;
    e.aux = pending_.back().lsn;
    std::span<const int32_t> pids = cause.Causes().pids();
    e.causes.assign(pids.begin(), pids.end());
    obs::EmitEvent(std::move(e));
  }
}

Task<int> XfsSim::Fsync(Process& proc, int64_t ino) {
  co_await FlushInodeData(proc, ino, kNoPageLimit, /*wait=*/true);
  int err = TakeWritebackError(ino);
  // Log force: make every log item up to the current LSN durable. Unlike
  // ext4's ordered commit, this writes only metadata.
  int lerr = co_await LogForce();
  if (err == 0) {
    err = lerr;
  }
  if (layout().durability_barriers) {
    // One barrier covers both the data flushed above and the log write:
    // both completed before the flush is submitted.
    int ferr = co_await SubmitFlushBarrier(proc);
    if (err == 0) {
      err = ferr;
    }
  }
  co_return err;
}

Task<int> XfsSim::LogForce() {
  int force_error = 0;
  uint64_t target = next_lsn_ - 1;
  while (synced_lsn_ < target) {
    if (forcing_) {
      co_await force_done_.Wait();
      continue;
    }
    forcing_ = true;
    std::deque<LogItem> batch;
    batch.swap(pending_);
    uint64_t batch_lsn = batch.empty() ? synced_lsn_ : batch.back().lsn;
    int blocks = 0;
    CauseSet batch_causes;
    for (const LogItem& item : batch) {
      blocks += item.blocks;
      batch_causes.Merge(item.causes);
    }
    if (blocks > 0) {
      // With full integration the log task is marked as a proxy for the
      // causing processes; with only partial integration, the log write is
      // (wrongly, from a scheduler's point of view) attributed to the log
      // task itself.
      if (log_config_.full_integration) {
        log_task_->BeginProxy(batch_causes);
      }
      uint64_t payload_pages = static_cast<uint64_t>(blocks) + 1;
      uint64_t sectors = payload_pages * (kPageSize / kSectorSize);
      // The XFS log lives in the layout's journal area.
      auto req = std::make_shared<BlockRequest>();
      if (log_cursor_ + sectors > layout().journal_sectors) {
        log_cursor_ = 0;
      }
      req->sector = layout().journal_start + log_cursor_;
      req->bytes = static_cast<uint32_t>(payload_pages * kPageSize);
      req->is_write = true;
      req->is_journal = true;
      req->submitter = log_task_;
      req->causes = log_task_->Causes();
      req->journal_tid = batch_lsn;
      log_cursor_ += sectors;
      log_bytes_written_ += req->bytes;
      co_await block().SubmitAndWait(req);
      if (req->result != 0 && force_error == 0) {
        force_error = req->result;
      }
      if (log_config_.full_integration) {
        log_task_->EndProxy();
      }
      ++log_forces_;
      ++counters().journal_commits;
      if (obs::TracingActive()) {
        obs::TraceEvent e;
        e.type = obs::EventType::kTxnCommit;
        e.pid = log_task_->pid();
        e.aux = batch_lsn;
        e.result = force_error;
        std::span<const int32_t> pids = batch_causes.pids();
        e.causes.assign(pids.begin(), pids.end());
        obs::EmitEvent(std::move(e));
      }
    }
    synced_lsn_ = std::max(synced_lsn_, batch_lsn);
    forcing_ = false;
    force_done_.NotifyAll();
  }
  co_return force_error;
}

Task<void> XfsSim::PeriodicFlushLoop() {
  for (;;) {
    co_await Delay(log_config_.periodic_flush);
    if (!pending_.empty()) {
      co_await LogForce();
    }
  }
}

}  // namespace splitio
