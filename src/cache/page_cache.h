// Page cache with dirty tracking, writeback, and memory-level hooks.
//
// Models the Linux page cache as the paper's schedulers see it:
//  - writes dirty 4 KB pages tagged with their causing processes (§4.1);
//  - the buffer-dirty and buffer-free hooks notify a split scheduler the
//    moment write work enters or leaves the system (§4.2 "Memory");
//  - a writeback daemon (pdflush) flushes dirty data in the background,
//    acting as an I/O proxy for the original writers;
//  - processes dirtying pages beyond the dirty ratio are throttled, as in
//    Linux.
//
// The cache also serves reads: pages inserted on read fill are clean and
// evicted FIFO when the clean capacity is exceeded.
//
// Dirtying, writeback start, writeback completion and eviction are range
// walks: each resolves a 64-page leaf of the inode's page tree once and
// does the per-page steps inside it. Hooks still fire once per page, in
// index order.
#ifndef SRC_CACHE_PAGE_CACHE_H_
#define SRC_CACHE_PAGE_CACHE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory_resource>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cache/page_tree.h"
#include "src/core/causes.h"
#include "src/core/process.h"
#include "src/device/device.h"
#include "src/metrics/counters.h"
#include "src/obs/trace_sink.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace splitio {

// Memory-level scheduler hooks (Table 2: buffer-dirty, buffer-free).
class PageCacheHooks {
 public:
  virtual ~PageCacheHooks() = default;

  // `page.causes` already includes `dirtier`; `prev` holds the causes before
  // this dirtying (empty for a fresh page). `was_dirty` distinguishes an
  // overwrite of buffered data from new write work.
  virtual void OnBufferDirty(Process& dirtier, Page& page, bool was_dirty,
                             const CauseSet& prev) {
    (void)dirtier;
    (void)page;
    (void)was_dirty;
    (void)prev;
  }

  // The page was deleted before writeback (e.g. truncate/unlink).
  virtual void OnBufferFree(Page& page) { (void)page; }

  // Hooks must not insert, free or evict pages: the cache calls them in
  // the middle of range walks.
};

class PageCache {
 public:
  struct Config {
    uint64_t total_ram = 16ULL << 30;
    double dirty_ratio = 0.20;
    double dirty_background_ratio = 0.10;
    Nanos writeback_interval = Sec(5);
    Nanos dirty_expire = Sec(30);
    // Whether the kernel writeback daemon runs. A scheduler that owns
    // writeback (Split-Deadline, §7.1.2) turns it off when it attaches;
    // tests turn it off to keep data buffered.
    bool writeback_daemon = true;
    uint64_t clean_capacity_pages = 256 * 1024;  // 1 GB of clean cache
    // Pages flushed per writeback batch per inode.
    uint64_t writeback_batch_pages = 2048;
  };

  PageCache() : PageCache(Config{}) {}
  explicit PageCache(const Config& config) : config_(config) {}

  void set_hooks(PageCacheHooks* hooks) { hooks_ = hooks; }
  const Config& config() const { return config_; }
  // Before StartWritebackDaemon: the daemon will not start.
  void DisableWritebackDaemon() { config_.writeback_daemon = false; }

  // ---- Lookup / read path ----
  Page* Find(int64_t ino, uint64_t index);
  // Inserts a clean page (read fill), evicting old clean pages if needed.
  Page& InsertClean(int64_t ino, uint64_t index);

  // ---- Write path ----
  // Dirties pages [first, first + count) of `ino` in index order on behalf
  // of `dirtier` (whose Causes() — possibly proxy causes — are merged into
  // each page's tag), firing the buffer-dirty hook for each page.
  void MarkDirtyRange(Process& dirtier, int64_t ino, uint64_t first,
                      uint64_t count);
  // One-page MarkDirtyRange.
  Page& MarkDirty(Process& dirtier, int64_t ino, uint64_t index);

  // Whether dirty + under-writeback pages exceed the dirty ratio, so that
  // ThrottleDirty would block.
  bool over_dirty_limit() const {
    return dirty_pages_ + writeback_pages_ > dirty_limit_pages();
  }
  // Blocks the caller while dirty + under-writeback pages exceed the dirty
  // ratio (as in Linux, pages under writeback still count against the
  // throttle — otherwise writers could flood the block queue unboundedly).
  Task<void> ThrottleDirty();

  // ---- Writeback bookkeeping (used by file systems) ----
  // Starts writeback of `ino`'s pages at `indices` (ascending). Each index
  // counts as one cache lookup, and as a hit when the page is present. For
  // each present dirty page, in order, calls before(page) while the page
  // still holds its dirty state, then marks it submitted: it no longer
  // counts as dirty and its tag is cleared once the block layer has it
  // (§3.1: proxy tags are cleared when the proxy finishes submitting).
  // Each page started is one writeback I/O, ended by one EndWriteback.
  // `before` must not insert, free or evict pages.
  template <typename Fn>
  void StartWriteback(int64_t ino, std::span<const uint64_t> indices,
                      Fn&& before) {
    PageTree& tree = TreeOf(ino);
    LeafCursor cursor;
    for (uint64_t index : indices) {
      ++counters().cache_lookups;
      PageTree::Node* leaf = cursor.Leaf(tree, index, pools_);
      Page* page = PageTree::PageIn(leaf, index);
      if (page == nullptr) {
        continue;
      }
      ++counters().cache_hits;
      if (page->dirty) {
        before(*page);
        WritebackStarted(tree, leaf, *page);
      }
    }
  }
  // One-page StartWriteback (one lookup) with nothing to do before.
  void MarkWritebackStarted(Page& page) {
    StartWriteback(page.ino, std::span(&page.index, 1), [](Page&) {});
  }
  // Ends one writeback I/O of each of `ino`'s `count` pages from `first`
  // (or at `indices`), handling each page in turn: a lookup, and for a
  // present page the end of the I/O, a clean-FIFO entry, and the eviction
  // of what is over the clean capacity.
  void EndWriteback(int64_t ino, uint64_t first, uint64_t count);
  void EndWriteback(int64_t ino, std::span<const uint64_t> indices);
  // One-page EndWriteback.
  void MarkWritebackDone(int64_t ino, uint64_t index) {
    EndWriteback(ino, index, 1);
  }

  // Frees a page (fires buffer-free if it was dirty and unwritten).
  void Free(int64_t ino, uint64_t index);
  // Frees every page of `ino`; returns freed dirty pages.
  uint64_t FreeInode(int64_t ino);

  // ---- Dirty queries ----
  uint64_t dirty_pages() const { return dirty_pages_; }
  uint64_t writeback_pages() const { return writeback_pages_; }
  uint64_t dirty_bytes() const { return dirty_pages_ * kPageSize; }
  uint64_t dirty_pages_of(int64_t ino) const;
  uint64_t dirty_bytes_of(int64_t ino) const {
    return dirty_pages_of(ino) * kPageSize;
  }
  // Calls fn(index) for the first `max` dirty pages of `ino` in ascending
  // index order (flush order / merging). `fn` must not modify the cache.
  template <typename Fn>
  void ForEachDirty(int64_t ino, uint64_t max, Fn&& fn) const {
    auto it = trees_.find(ino);
    if (it != trees_.end()) {
      it->second.ForEachDirty(max, [&fn](Page& page) { fn(page.index); });
    }
  }
  // Calls fn(page) for the first `max` dirty pages of `ino` in ascending
  // index order. Each page visited counts as a cache lookup and hit, as a
  // Find of it would. `fn` must not modify the cache.
  template <typename Fn>
  void ForEachDirtyPage(int64_t ino, uint64_t max, Fn&& fn) {
    uint64_t visited = 0;
    auto it = trees_.find(ino);
    if (it != trees_.end()) {
      it->second.ForEachDirty(max, [&](Page& page) {
        ++visited;
        fn(page);
      });
    }
    counters().cache_lookups += visited;
    counters().cache_hits += visited;
  }
  // Replaces `out` with the first `max` dirty page indices of `ino`.
  void CollectDirty(int64_t ino, uint64_t max,
                    std::vector<uint64_t>* out) const;
  uint64_t dirty_limit_pages() const {
    return static_cast<uint64_t>(
        config_.dirty_ratio * static_cast<double>(config_.total_ram) /
        kPageSize);
  }
  uint64_t background_limit_pages() const {
    return static_cast<uint64_t>(config_.dirty_background_ratio *
                                 static_cast<double>(config_.total_ram) /
                                 kPageSize);
  }
  bool over_background_limit() const {
    return dirty_pages_ > background_limit_pages();
  }

  // ---- Writeback daemon ----
  // `flush` writes back up to N pages of an inode, returning pages
  // submitted; supplied by the file system at wiring time.
  using FlushFn =
      std::function<Task<uint64_t>(int64_t ino, uint64_t max_pages)>;
  void StartWritebackDaemon(FlushFn flush);
  void KickWriteback() {
    if (obs::TracingActive()) {
      obs::TraceEvent e;
      e.type = obs::EventType::kWbKick;
      obs::EmitEvent(std::move(e));
    }
    writeback_kick_.NotifyAll();
  }

  // Inode with the oldest dirty data, or -1 if nothing is dirty.
  int64_t OldestDirtyInode() const;

  uint64_t pages_resident() const { return resident_; }

 private:
  // A run of the clean FIFO: `count` eviction candidates of `tree`, at
  // consecutive indices from `first`, pushed one after the other.
  struct CleanRun {
    PageTree* tree;
    uint64_t first;
    uint32_t count;
  };

  Task<void> WritebackLoop(FlushFn flush);
  // Appends a page to the clean FIFO, extending the last run when the page
  // continues it.
  void PushClean(PageTree& tree, uint64_t index);
  void EvictCleanIfNeeded();
  // The tree of `ino`, created empty if the inode has none. Remembers the
  // last inode asked for: writes, flushes and completions come in runs of
  // pages of one file, so on the benchmark workloads it answers 84-99.9%
  // of lookups, and without it buffered-write runs 20% fewer ops/s
  // (median of 10 paired runs, 4-vCPU VM, GCC 12).
  PageTree& TreeOf(int64_t ino) {
    if (last_tree_ == nullptr || last_ino_ != ino) {
      last_tree_ = &trees_[ino];
      last_ino_ = ino;
    }
    return *last_tree_;
  }
  void Erase(PageTree& tree, PageTree::Node* leaf, uint64_t index);
  // The per-page steps of StartWriteback and EndWriteback.
  void WritebackStarted(PageTree& tree, PageTree::Node* leaf, Page& page);
  void WritebackEnded(PageTree& tree, LeafCursor& cursor, uint64_t index);
  // Drops `ino` from the dirty-inode set once its last dirty page is gone.
  void NoteUntagged(const PageTree& tree, int64_t ino);

  Config config_;
  PageCacheHooks* hooks_ = nullptr;
  // One tree per inode ever looked up. An emptied tree stays (without
  // nodes), so re-caching the inode allocates nothing, and tree addresses
  // are stable.
  std::unordered_map<int64_t, PageTree> trees_;
  int64_t last_ino_ = 0;
  PageTree* last_tree_ = nullptr;
  PageTree::Pools pools_;
  uint64_t resident_ = 0;
  // Recycles the nodes and blocks of the two containers below, so their
  // steady churn stops allocating once warm. Their iteration order is part
  // of the schedule and does not depend on the allocator.
  std::pmr::unsynchronized_pool_resource pool_;
  // Inode -> time its oldest dirty page was dirtied. Iteration order breaks
  // OldestDirtyInode ties.
  std::pmr::unordered_map<int64_t, Nanos> inode_first_dirty_{&pool_};
  uint64_t dirty_pages_ = 0;
  uint64_t writeback_pages_ = 0;
  // Eviction candidates in insertion order; entries go stale when a page is
  // evicted, erased or re-dirtied and are skipped when popped. Consecutive
  // pushes of consecutive pages of one tree share a run, which yields the
  // same pops as one entry per page.
  std::pmr::deque<CleanRun> clean_fifo_{&pool_};
  // The leaf of the last page eviction examined, kept across calls: the
  // FIFO's runs come back to it page after page.
  LeafCursor evict_cursor_;
  Event writeback_kick_;
  Event dirty_drained_;
};

}  // namespace splitio

#endif  // SRC_CACHE_PAGE_CACHE_H_
