#include "src/cache/page_cache.h"

#include <algorithm>
#include <span>

#include "src/metrics/counters.h"

namespace splitio {

Page* PageCache::Find(int64_t ino, uint64_t index) {
  ++counters().cache_lookups;
  Page* page = TreeOf(ino).Find(index);
  if (page != nullptr) {
    ++counters().cache_hits;
  }
  return page;
}

Page& PageCache::FindOrInsert(PageTree& tree, int64_t ino, uint64_t index,
                              bool* inserted) {
  Page& page = tree.FindOrInsert(index, pools_, inserted);
  if (*inserted) {
    page.ino = ino;
    page.index = index;
    ++resident_;
  }
  return page;
}

void PageCache::Erase(PageTree& tree, uint64_t index) {
  tree.Erase(index, pools_);
  --resident_;
}

void PageCache::NoteUntagged(const PageTree& tree, int64_t ino) {
  if (tree.dirty_pages() == 0) {
    inode_first_dirty_.erase(ino);
  }
}

Page& PageCache::InsertClean(int64_t ino, uint64_t index) {
  bool inserted = false;
  Page& page = FindOrInsert(TreeOf(ino), ino, index, &inserted);
  if (inserted) {
    clean_fifo_.push_back(PageKey{ino, index});
    EvictCleanIfNeeded();
  }
  return page;
}

void PageCache::EvictCleanIfNeeded() {
  while (resident_ > config_.clean_capacity_pages + dirty_pages_ &&
         !clean_fifo_.empty()) {
    PageKey key = clean_fifo_.front();
    clean_fifo_.pop_front();
    PageTree& tree = TreeOf(key.ino);
    Page* page = tree.Find(key.index);
    if (page == nullptr || page->dirty || page->writeback_ios > 0) {
      continue;  // stale entry or became dirty; skip
    }
    Erase(tree, key.index);
  }
}

Page& PageCache::MarkDirty(Process& dirtier, int64_t ino, uint64_t index) {
  ++counters().pages_dirtied;
  PageTree& tree = TreeOf(ino);
  bool inserted = false;
  Page& page = FindOrInsert(tree, ino, index, &inserted);
  bool was_dirty = page.dirty;
  // Re-dirtying a page with no new causes is the hot case (every write
  // syscall touches its pages here): the merge is a no-op, so the live set
  // doubles as `prev` and no copy is made. Copy only when the causes
  // actually change and a hook will want the pre-merge value.
  const CauseSet& causes = dirtier.Causes();
  CauseSet prev_copy;
  const CauseSet* prev = &page.causes;
  if (!page.causes.ContainsAll(causes)) {
    if (hooks_ != nullptr) {
      prev_copy = page.causes;
      prev = &prev_copy;
    }
    page.causes.Merge(causes);
  }
  Nanos now = Simulator::current().Now();
  if (!was_dirty) {
    page.dirty = true;
    page.dirtied_at = now;
    ++dirty_pages_;
    tree.TagDirty(index);
    inode_first_dirty_.try_emplace(ino, now);
    if (over_background_limit()) {
      KickWriteback();
    }
  }
  if (obs::TracingActive()) {
    obs::TraceEvent e;
    e.type = obs::EventType::kPageDirty;
    e.pid = dirtier.pid();
    e.ino = ino;
    e.aux = index;
    std::span<const int32_t> pids = page.causes.pids();
    e.causes.assign(pids.begin(), pids.end());
    obs::EmitEvent(std::move(e));
  }
  if (hooks_ != nullptr) {
    hooks_->OnBufferDirty(dirtier, page, was_dirty, *prev);
  }
  return page;
}

Task<void> PageCache::ThrottleDirty() {
  while (dirty_pages_ + writeback_pages_ > dirty_limit_pages()) {
    KickWriteback();
    co_await dirty_drained_.Wait();
  }
}

void PageCache::MarkWritebackStarted(Page& page) {
  if (!page.dirty) {
    return;
  }
  ++counters().wb_pages_flushed;
  page.dirty = false;
  if (page.writeback_ios++ == 0) {
    ++writeback_pages_;
  }
  page.causes.Clear();
  page.prelim_cost = 0;
  --dirty_pages_;
  PageTree& tree = TreeOf(page.ino);
  tree.UntagDirty(page.index);
  NoteUntagged(tree, page.ino);
}

void PageCache::MarkWritebackDone(int64_t ino, uint64_t index) {
  Page* page = Find(ino, index);
  if (page == nullptr) {
    return;
  }
  if (page->writeback_ios > 0 && --page->writeback_ios == 0) {
    --writeback_pages_;
    if (dirty_pages_ + writeback_pages_ <= dirty_limit_pages()) {
      dirty_drained_.NotifyAll();
    }
  }
  clean_fifo_.push_back(PageKey{ino, index});
  EvictCleanIfNeeded();
}

void PageCache::Free(int64_t ino, uint64_t index) {
  PageTree& tree = TreeOf(ino);
  Page* page = tree.Find(index);
  if (page == nullptr) {
    return;
  }
  bool was_dirty = page->dirty;
  if (was_dirty) {
    if (hooks_ != nullptr) {
      hooks_->OnBufferFree(*page);
    }
    --dirty_pages_;
  }
  if (page->writeback_ios > 0) {
    --writeback_pages_;  // its I/Os will complete into a page that is gone
  }
  Erase(tree, index);
  if (was_dirty) {
    NoteUntagged(tree, ino);
    if (dirty_pages_ <= dirty_limit_pages()) {
      dirty_drained_.NotifyAll();
    }
  }
}

uint64_t PageCache::FreeInode(int64_t ino) {
  auto it = trees_.find(ino);
  uint64_t freed_dirty = 0;
  if (it != trees_.end()) {
    // Free() untags each page, so the lowest dirty page is always next.
    while (it->second.dirty_pages() > 0) {
      uint64_t first = 0;
      it->second.ForEachDirty(1, [&first](uint64_t index) { first = index; });
      Free(ino, first);
      ++freed_dirty;
    }
  }
  return freed_dirty;
}

uint64_t PageCache::dirty_pages_of(int64_t ino) const {
  auto it = trees_.find(ino);
  return it == trees_.end() ? 0 : it->second.dirty_pages();
}

void PageCache::CollectDirty(int64_t ino, uint64_t max,
                             std::vector<uint64_t>* out) const {
  out->clear();
  out->reserve(std::min(max, dirty_pages_of(ino)));
  ForEachDirty(ino, max, [out](uint64_t index) { out->push_back(index); });
}

int64_t PageCache::OldestDirtyInode() const {
  int64_t best = -1;
  Nanos best_time = kNanosMax;
  for (const auto& [ino, when] : inode_first_dirty_) {
    if (when < best_time) {
      best_time = when;
      best = ino;
    }
  }
  return best;
}

void PageCache::StartWritebackDaemon(FlushFn flush) {
  if (!config_.writeback_daemon) {
    return;
  }
  Simulator::current().Spawn(WritebackLoop(std::move(flush)));
}

Task<void> PageCache::WritebackLoop(FlushFn flush) {
  for (;;) {
    co_await writeback_kick_.WaitWithTimeout(config_.writeback_interval);
    // Flush while over the background limit, or flush expired dirty data.
    for (;;) {
      Nanos now = Simulator::current().Now();
      bool over = over_background_limit();
      int64_t oldest = OldestDirtyInode();
      bool expired = false;
      if (oldest >= 0) {
        auto it = inode_first_dirty_.find(oldest);
        expired = it != inode_first_dirty_.end() &&
                  now - it->second >= config_.dirty_expire;
      }
      if (oldest < 0 || (!over && !expired)) {
        break;
      }
      uint64_t submitted =
          co_await flush(oldest, config_.writeback_batch_pages);
      if (submitted == 0) {
        break;  // nothing flushable (all under writeback already)
      }
    }
  }
}

}  // namespace splitio
