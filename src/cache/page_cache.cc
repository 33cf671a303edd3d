#include "src/cache/page_cache.h"

#include <algorithm>
#include <cstdint>
#include <span>

namespace splitio {

Page* PageCache::Find(int64_t ino, uint64_t index) {
  ++counters().cache_lookups;
  Page* page = TreeOf(ino).Find(index);
  if (page != nullptr) {
    ++counters().cache_hits;
  }
  return page;
}

void PageCache::Erase(PageTree& tree, PageTree::Node* leaf, uint64_t index) {
  tree.Erase(leaf, index, pools_);
  --resident_;
}

void PageCache::NoteUntagged(const PageTree& tree, int64_t ino) {
  if (tree.dirty_pages() == 0) {
    inode_first_dirty_.erase(ino);
  }
}

Page& PageCache::InsertClean(int64_t ino, uint64_t index) {
  PageTree& tree = TreeOf(ino);
  bool inserted = false;
  Page& page = tree.FindOrInsert(index, pools_, &inserted);
  if (inserted) {
    page.ino = ino;
    page.index = index;
    ++resident_;
    PushClean(tree, index);
    EvictCleanIfNeeded();
  }
  return page;
}

void PageCache::PushClean(PageTree& tree, uint64_t index) {
  if (!clean_fifo_.empty()) {
    CleanRun& last = clean_fifo_.back();
    if (last.tree == &tree && last.first + last.count == index &&
        last.count != UINT32_MAX) {
      ++last.count;
      return;
    }
  }
  clean_fifo_.push_back(CleanRun{&tree, index, 1});
}

void PageCache::EvictCleanIfNeeded() {
  while (resident_ > config_.clean_capacity_pages + dirty_pages_ &&
         !clean_fifo_.empty()) {
    CleanRun& run = clean_fifo_.front();
    PageTree& tree = *run.tree;
    uint64_t index = run.first++;
    if (--run.count == 0) {
      clean_fifo_.pop_front();
    }
    PageTree::Node* leaf = evict_cursor_.Leaf(tree, index, pools_);
    Page* page = PageTree::PageIn(leaf, index);
    if (page == nullptr || page->dirty || page->writeback_ios > 0) {
      continue;  // stale entry or became dirty; skip
    }
    Erase(tree, leaf, index);
  }
}

void PageCache::MarkDirtyRange(Process& dirtier, int64_t ino, uint64_t first,
                               uint64_t count) {
  PageTree& tree = TreeOf(ino);
  const CauseSet& causes = dirtier.Causes();
  const Nanos now = Simulator::current().Now();
  bool first_dirty_noted = false;
  uint64_t index = first;
  while (count > 0) {
    PageTree::Node* leaf = tree.FindOrInsertLeaf(index, pools_);
    uint64_t in_leaf =
        std::min(count, PageTree::kFanout - PageTree::LeafSlot(index));
    count -= in_leaf;
    for (; in_leaf > 0; --in_leaf, ++index) {
      ++counters().pages_dirtied;
      bool inserted = false;
      Page& page = PageTree::InsertIn(leaf, index, pools_, &inserted);
      if (inserted) {
        page.ino = ino;
        page.index = index;
        ++resident_;
      }
      bool was_dirty = page.dirty;
      // Re-dirtying a page with no new causes is the hot case (every write
      // syscall touches its pages here): the merge is a no-op, so the live
      // set doubles as `prev` and no copy is made. Copy only when the
      // causes actually change and a hook will want the pre-merge value.
      CauseSet prev_copy;
      const CauseSet* prev = &page.causes;
      if (!page.causes.ContainsAll(causes)) {
        if (hooks_ != nullptr) {
          prev_copy = page.causes;
          prev = &prev_copy;
        }
        page.causes.Merge(causes);
      }
      if (!was_dirty) {
        page.dirty = true;
        page.dirtied_at = now;
        ++dirty_pages_;
        tree.TagDirty(leaf, index);
        if (!first_dirty_noted) {
          inode_first_dirty_.try_emplace(ino, now);
          first_dirty_noted = true;
        }
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
    }
  }
}

Page& PageCache::MarkDirty(Process& dirtier, int64_t ino, uint64_t index) {
  MarkDirtyRange(dirtier, ino, index, 1);
  return *TreeOf(ino).Find(index);
}

Task<void> PageCache::ThrottleDirty() {
  while (over_dirty_limit()) {
    KickWriteback();
    co_await dirty_drained_.Wait();
  }
}

void PageCache::WritebackStarted(PageTree& tree, PageTree::Node* leaf,
                                 Page& page) {
  ++counters().wb_pages_flushed;
  page.dirty = false;
  if (page.writeback_ios++ == 0) {
    ++writeback_pages_;
  }
  page.causes.Clear();
  page.prelim_cost = 0;
  --dirty_pages_;
  tree.UntagDirty(leaf, page.index);
  NoteUntagged(tree, page.ino);
}

void PageCache::EndWriteback(int64_t ino, uint64_t first, uint64_t count) {
  PageTree& tree = TreeOf(ino);
  LeafCursor cursor;
  for (uint64_t i = 0; i < count; ++i) {
    WritebackEnded(tree, cursor, first + i);
  }
}

void PageCache::EndWriteback(int64_t ino, std::span<const uint64_t> indices) {
  PageTree& tree = TreeOf(ino);
  LeafCursor cursor;
  for (uint64_t index : indices) {
    WritebackEnded(tree, cursor, index);
  }
}

void PageCache::WritebackEnded(PageTree& tree, LeafCursor& cursor,
                               uint64_t index) {
  ++counters().cache_lookups;
  Page* page = PageTree::PageIn(cursor.Leaf(tree, index, pools_), index);
  if (page == nullptr) {
    return;
  }
  ++counters().cache_hits;
  if (page->writeback_ios > 0 && --page->writeback_ios == 0) {
    --writeback_pages_;
    if (dirty_pages_ + writeback_pages_ <= dirty_limit_pages()) {
      dirty_drained_.NotifyAll();
    }
  }
  PushClean(tree, index);
  // May free this page's leaf; the cursor then looks it up again.
  EvictCleanIfNeeded();
}

void PageCache::Free(int64_t ino, uint64_t index) {
  PageTree& tree = TreeOf(ino);
  PageTree::Node* leaf = tree.FindLeaf(index);
  Page* page = PageTree::PageIn(leaf, index);
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
  Erase(tree, leaf, index);
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
      it->second.ForEachDirty(1, [&first](Page& page) { first = page.index; });
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
