#include "src/fs/cowfs.h"

#include <algorithm>
#include <limits>
#include <optional>

#include "src/sim/simulator.h"

namespace splitio {

CowFsSim::CowFsSim(PageCache* cache, BlockLayer* block,
                   Process* writeback_task, Process* checkpoint_task,
                   Process* gc_task, const Layout& layout,
                   const CowConfig& cow_config)
    : FsBase(cache, block, writeback_task, layout),
      checkpoint_task_(checkpoint_task),
      gc_task_(gc_task),
      cow_(cow_config) {
  segments_.resize(cow_.total_segments);
  for (size_t i = 0; i < segments_.size(); ++i) {
    segments_[i].base_sector =
        layout.data_start +
        static_cast<uint64_t>(i) * cow_.segment_pages *
            (kPageSize / kSectorSize);
  }
}

void CowFsSim::Mount() {
  Simulator::current().Spawn(CheckpointLoop());
  Simulator::current().Spawn(GcLoop());
}

void CowFsSim::JournalMetadata(Process& cause, int64_t ino, int blocks) {
  (void)ino;
  pending_meta_.push_back(PendingMeta{blocks, cause.Causes()});
  pending_causes_.Merge(cause.Causes());
  pending_blocks_ += blocks;
}

size_t CowFsSim::SegmentOf(uint64_t sector) const {
  uint64_t rel = sector - segments_[0].base_sector;
  return static_cast<size_t>(
      rel / (cow_.segment_pages * (kPageSize / kSectorSize)));
}

void CowFsSim::MarkDead(uint64_t sector) {
  size_t seg = SegmentOf(sector);
  if (seg < segments_.size() && segments_[seg].live > 0) {
    --segments_[seg].live;
  }
  reverse_map_.erase(sector);
}

uint64_t CowFsSim::AllocateCowPage(Inode& inode, uint64_t page_index,
                                   const CauseSet& causes) {
  if (head_offset_ >= cow_.segment_pages) {
    // Advance the log head to the next empty segment.
    size_t start = head_segment_;
    do {
      head_segment_ = (head_segment_ + 1) % segments_.size();
    } while (segments_[head_segment_].used != 0 && head_segment_ != start);
    head_offset_ = 0;
    // Low on space? Wake the collector.
    gc_kick_.NotifyAll();
  }
  Segment& seg = segments_[head_segment_];
  uint64_t sector =
      seg.base_sector + head_offset_ * (kPageSize / kSectorSize);
  ++head_offset_;
  ++seg.used;
  ++seg.live;
  seg.owners.Merge(causes);
  reverse_map_[sector] = {inode.ino, page_index};
  return sector;
}

Task<uint64_t> CowFsSim::CowFlush(Process& submitter, int64_t ino,
                                  uint64_t max_pages, bool wait) {
  Inode* inode = GetInode(ino);
  if (inode == nullptr) {
    co_return 0;
  }
  std::vector<uint64_t> indices;
  cache().CollectDirty(ino, max_pages, &indices);
  if (indices.empty()) {
    if (wait) {
      co_await WaitInflight(ino);
    }
    co_return 0;
  }

  // Out-of-place: every flushed page gets a fresh log-head location; the
  // old location dies. Random overwrites become sequential disk writes —
  // and a remapping tree update (metadata) every time.
  uint64_t run_sector = 0;
  uint32_t run_pages = 0;
  CauseSet run_causes;
  double run_prelim = 0;
  // Pages that join a run move to the front of `indices`, so the run's
  // pages are indices[run_begin, run_begin + run_pages): consecutive
  // sectors, not necessarily consecutive pages.
  size_t run_begin = 0;
  auto submit_run = [&]() {
    auto req = std::make_shared<BlockRequest>();
    req->sector = run_sector;
    req->bytes = run_pages * kPageSize;
    req->is_write = true;
    req->is_sync = !submitter.is_proxy();
    req->submitter = &submitter;
    req->causes = run_causes;
    req->prelim_charged = run_prelim;
    BeginInflight(ino);
    block().Submit(req);
    WatchWriteback(std::move(req), ino,
                   std::span(indices).subspan(run_begin, run_pages));
  };

  // Each page's old location is read before the page is remapped, so the
  // cursor only ever sees pages it has not passed.
  ExtentMap::Cursor old_sectors(inode->extents);
  cache().StartWriteback(ino, indices, [&](const Page& page) {
    uint64_t idx = page.index;
    if (std::optional<uint64_t> old = old_sectors.Sector(idx)) {
      MarkDead(*old);
    }
    uint64_t sector = AllocateCowPage(*inode, idx, page.causes);
    inode->extents.Set(idx, sector);
    bool contiguous =
        run_pages > 0 &&
        sector == run_sector + run_pages * (kPageSize / kSectorSize) &&
        run_pages < layout().max_request_pages;
    if (!contiguous && run_pages > 0) {
      submit_run();
      run_begin += run_pages;
      run_pages = 0;
      run_causes.Clear();
      run_prelim = 0;
    }
    if (run_pages == 0) {
      run_sector = sector;
    }
    run_causes.Merge(page.causes);
    run_prelim += page.prelim_cost;
    indices[run_begin + run_pages] = idx;
    ++run_pages;
  });
  if (run_pages > 0) {
    submit_run();
  }
  // Remap tree updates: one metadata block per ~512 remapped pages.
  JournalMetadata(submitter, ino,
                  1 + static_cast<int>(indices.size() / 512));
  if (wait) {
    co_await WaitInflight(ino);
  }
  co_return indices.size();
}

Task<uint64_t> CowFsSim::WritebackInode(int64_t ino, uint64_t max_pages) {
  if (cache().dirty_pages_of(ino) == 0) {
    co_return 0;
  }
  CauseSet served = ServedCauses(ino, max_pages);
  writeback_task().BeginProxy(served);
  uint64_t n = co_await CowFlush(writeback_task(), ino, max_pages, false);
  writeback_task().EndProxy();
  co_return n;
}

Task<void> CowFsSim::Checkpoint(Process& initiator) {
  (void)initiator;
  while (checkpointing_) {
    co_await checkpoint_done_.Wait();
    if (pending_blocks_ == 0) {
      co_return;  // a concurrent checkpoint covered our updates
    }
  }
  if (pending_blocks_ == 0) {
    co_return;
  }
  checkpointing_ = true;
  CauseSet causes = pending_causes_;
  int blocks = pending_blocks_;
  pending_meta_.clear();
  pending_causes_.Clear();
  pending_blocks_ = 0;

  // The checkpointer writes the batched tree updates on behalf of every
  // process that changed metadata since the last checkpoint.
  checkpoint_task_->BeginProxy(causes);
  auto req = std::make_shared<BlockRequest>();
  req->sector = layout().metadata_start;
  req->bytes = static_cast<uint32_t>(blocks + 2) * kPageSize;
  req->is_write = true;
  req->is_journal = true;  // ordering-critical, like a commit record
  req->submitter = checkpoint_task_;
  req->causes = causes;
  co_await block().SubmitAndWait(req);
  checkpoint_task_->EndProxy();

  ++checkpoints_;
  checkpointing_ = false;
  checkpoint_done_.NotifyAll();
}

Task<int> CowFsSim::Fsync(Process& proc, int64_t ino) {
  co_await CowFlush(proc, ino, kNoPageLimit, /*wait=*/true);
  int err = TakeWritebackError(ino);
  co_await Checkpoint(proc);
  if (layout().durability_barriers) {
    int ferr = co_await SubmitFlushBarrier(proc);
    if (err == 0) {
      err = ferr;
    }
  }
  co_return err;
}

Task<void> CowFsSim::CheckpointLoop() {
  for (;;) {
    co_await Delay(cow_.checkpoint_interval);
    if (pending_blocks_ > 0) {
      co_await Checkpoint(*checkpoint_task_);
    }
  }
}

uint64_t CowFsSim::live_segments() const {
  uint64_t n = 0;
  for (const Segment& seg : segments_) {
    if (seg.used > 0) {
      ++n;
    }
  }
  return n;
}

double CowFsSim::log_utilization() const {
  return static_cast<double>(live_segments()) /
         static_cast<double>(segments_.size());
}

Task<void> CowFsSim::CollectSegment(size_t seg_idx) {
  Segment& seg = segments_[seg_idx];
  // Gather this segment's live pages.
  std::vector<std::pair<uint64_t, std::pair<int64_t, uint64_t>>> live;
  uint64_t seg_end = seg.base_sector +
                     cow_.segment_pages * (kPageSize / kSectorSize);
  for (const auto& [sector, owner] : reverse_map_) {
    if (sector >= seg.base_sector && sector < seg_end) {
      live.push_back({sector, owner});
    }
  }
  if (cow_.tag_gc_proxy) {
    gc_task_->BeginProxy(seg.owners);
  }
  // Migrate each live page: read from the old location, rewrite at the log
  // head. (Reads and writes are real device I/O attributed — or not — to
  // the data's owners depending on integration.)
  for (const auto& [sector, owner] : live) {
    auto read_req = std::make_shared<BlockRequest>();
    read_req->sector = sector;
    read_req->bytes = kPageSize;
    read_req->is_write = false;
    read_req->submitter = gc_task_;
    read_req->causes = gc_task_->Causes();
    co_await block().SubmitAndWait(read_req);

    Inode* inode = GetInode(owner.first);
    if (inode == nullptr) {
      continue;
    }
    MarkDead(sector);
    uint64_t new_sector =
        AllocateCowPage(*inode, owner.second, gc_task_->Causes());
    inode->extents.Set(owner.second, new_sector);
    auto write_req = std::make_shared<BlockRequest>();
    write_req->sector = new_sector;
    write_req->bytes = kPageSize;
    write_req->is_write = true;
    write_req->submitter = gc_task_;
    write_req->causes = gc_task_->Causes();
    co_await block().SubmitAndWait(write_req);
    ++gc_pages_moved_;
  }
  if (cow_.tag_gc_proxy) {
    gc_task_->EndProxy();
  }
  seg.live = 0;
  seg.used = 0;
  seg.owners.Clear();
}

Task<void> CowFsSim::GcLoop() {
  for (;;) {
    co_await gc_kick_.WaitWithTimeout(Sec(5));
    double free_fraction = 1.0 - log_utilization();
    if (free_fraction >= cow_.gc_threshold) {
      continue;
    }
    // Pick the most-collectable used segment (fewest live pages), never the
    // current head.
    size_t best = segments_.size();
    uint32_t best_live = std::numeric_limits<uint32_t>::max();
    for (size_t i = 0; i < segments_.size(); ++i) {
      if (i == head_segment_ || segments_[i].used == 0) {
        continue;
      }
      if (segments_[i].live < best_live) {
        best_live = segments_[i].live;
        best = i;
      }
    }
    if (best == segments_.size()) {
      continue;
    }
    ++gc_runs_;
    co_await CollectSegment(best);
  }
}

}  // namespace splitio
