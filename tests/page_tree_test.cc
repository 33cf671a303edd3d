// Randomized property test of the page cache's per-inode page trees against
// a brute-force reference: the storage the cache had before the trees (one
// hash map of pages plus a sorted dirty index per inode), driving the same
// first-dirty map and clean FIFO. Every step is followed by a full
// comparison of what the cache exposes.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    return std::hash<int64_t>()(k.ino) * 31 + std::hash<uint64_t>()(k.index);
  }
};

class ReferenceCache {
 public:
  struct RefPage {
    bool dirty = false;
    uint32_t writeback_ios = 0;
    std::vector<int32_t> causes;
    Nanos dirtied_at = 0;
  };

  explicit ReferenceCache(uint64_t clean_capacity)
      : clean_capacity_(clean_capacity) {}

  void InsertClean(int64_t ino, uint64_t index) {
    auto [it, inserted] = pages_.try_emplace(PageKey{ino, index});
    if (inserted) {
      clean_fifo_.push_back(PageKey{ino, index});
      EvictCleanIfNeeded();
    }
  }

  void MarkDirty(int32_t pid, int64_t ino, uint64_t index, Nanos now) {
    RefPage& page = pages_[PageKey{ino, index}];
    auto pos = std::lower_bound(page.causes.begin(), page.causes.end(), pid);
    if (pos == page.causes.end() || *pos != pid) {
      page.causes.insert(pos, pid);
    }
    if (!page.dirty) {
      page.dirty = true;
      page.dirtied_at = now;
      ++dirty_pages_;
      dirty_index_[ino].emplace(index, now);
      inode_first_dirty_.try_emplace(ino, now);
    }
  }

  void MarkWritebackStarted(int64_t ino, uint64_t index) {
    auto it = pages_.find(PageKey{ino, index});
    if (it == pages_.end() || !it->second.dirty) {
      return;
    }
    RefPage& page = it->second;
    page.dirty = false;
    if (page.writeback_ios++ == 0) {
      ++writeback_pages_;
    }
    page.causes.clear();
    --dirty_pages_;
    Undirty(ino, index);
  }

  void MarkWritebackDone(int64_t ino, uint64_t index) {
    auto it = pages_.find(PageKey{ino, index});
    if (it == pages_.end()) {
      return;
    }
    if (it->second.writeback_ios > 0 && --it->second.writeback_ios == 0) {
      --writeback_pages_;
    }
    clean_fifo_.push_back(PageKey{ino, index});
    EvictCleanIfNeeded();
  }

  void Free(int64_t ino, uint64_t index) {
    auto it = pages_.find(PageKey{ino, index});
    if (it == pages_.end()) {
      return;
    }
    if (it->second.dirty) {
      --dirty_pages_;
      Undirty(ino, index);
    }
    if (it->second.writeback_ios > 0) {
      --writeback_pages_;
    }
    pages_.erase(it);
  }

  uint64_t FreeInode(int64_t ino) {
    std::vector<uint64_t> indices = DirtyIndices(ino, ~0ULL);
    for (uint64_t index : indices) {
      Free(ino, index);
    }
    return indices.size();
  }

  std::vector<uint64_t> DirtyIndices(int64_t ino, uint64_t max) const {
    std::vector<uint64_t> out;
    auto it = dirty_index_.find(ino);
    if (it != dirty_index_.end()) {
      for (const auto& [index, when] : it->second) {
        if (out.size() >= max) {
          break;
        }
        out.push_back(index);
      }
    }
    return out;
  }

  int64_t OldestDirtyInode() const {
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

  uint64_t dirty_pages_of(int64_t ino) const {
    auto it = dirty_index_.find(ino);
    return it == dirty_index_.end() ? 0 : it->second.size();
  }

  const std::unordered_map<PageKey, RefPage, PageKeyHash>& pages() const {
    return pages_;
  }
  uint64_t dirty_pages() const { return dirty_pages_; }
  uint64_t writeback_pages() const { return writeback_pages_; }

 private:
  void Undirty(int64_t ino, uint64_t index) {
    auto it = dirty_index_.find(ino);
    it->second.erase(index);
    if (it->second.empty()) {
      dirty_index_.erase(it);
      inode_first_dirty_.erase(ino);
    }
  }

  void EvictCleanIfNeeded() {
    while (pages_.size() > clean_capacity_ + dirty_pages_ &&
           !clean_fifo_.empty()) {
      PageKey key = clean_fifo_.front();
      clean_fifo_.pop_front();
      auto it = pages_.find(key);
      if (it == pages_.end() || it->second.dirty ||
          it->second.writeback_ios > 0) {
        continue;
      }
      pages_.erase(it);
    }
  }

  uint64_t clean_capacity_;
  std::unordered_map<PageKey, RefPage, PageKeyHash> pages_;
  std::unordered_map<int64_t, std::map<uint64_t, Nanos>> dirty_index_;
  std::unordered_map<int64_t, Nanos> inode_first_dirty_;
  uint64_t dirty_pages_ = 0;
  uint64_t writeback_pages_ = 0;
  std::deque<PageKey> clean_fifo_;
};

void ExpectSameState(PageCache& cache, const ReferenceCache& ref,
                     const std::vector<int64_t>& inos, Rng& rng) {
  ASSERT_EQ(cache.pages_resident(), ref.pages().size());
  ASSERT_EQ(cache.dirty_pages(), ref.dirty_pages());
  ASSERT_EQ(cache.writeback_pages(), ref.writeback_pages());
  ASSERT_EQ(cache.OldestDirtyInode(), ref.OldestDirtyInode());
  uint64_t under_writeback = 0;
  for (const auto& [key, want] : ref.pages()) {
    under_writeback += want.writeback_ios > 0;
  }
  // Every counted page is resident and under writeback, and vice versa.
  ASSERT_EQ(cache.writeback_pages(), under_writeback);
  for (const auto& [key, want] : ref.pages()) {
    Page* page = cache.Find(key.ino, key.index);
    ASSERT_NE(page, nullptr) << key.ino << ":" << key.index;
    ASSERT_EQ(page->ino, key.ino);
    ASSERT_EQ(page->index, key.index);
    ASSERT_EQ(page->dirty, want.dirty);
    ASSERT_EQ(page->writeback_ios, want.writeback_ios);
    ASSERT_EQ(std::vector<int32_t>(page->causes.pids().begin(),
                                   page->causes.pids().end()),
              want.causes);
    if (want.dirty) {
      ASSERT_EQ(page->dirtied_at, want.dirtied_at);
    }
  }
  const uint64_t maxes[] = {0, 1, 1 + rng.Below(8), ~0ULL};
  std::vector<uint64_t> walked;
  for (int64_t ino : inos) {
    ASSERT_EQ(cache.dirty_pages_of(ino), ref.dirty_pages_of(ino));
    for (uint64_t max : maxes) {
      cache.CollectDirty(ino, max, &walked);
      ASSERT_EQ(walked, ref.DirtyIndices(ino, max)) << "ino " << ino;
    }
  }
}

TEST(PageTree, MatchesBruteForceReference) {
  Simulator sim;
  PageCache::Config config;
  config.clean_capacity_pages = 40;
  config.writeback_daemon = false;
  PageCache cache(config);
  ReferenceCache ref(config.clean_capacity_pages);
  Process writers[] = {Process(1, "a"), Process(2, "b"), Process(3, "c")};
  // Inodes and indices beyond the old packed key's 2^28 / 2^36 limits, and
  // indices that need every tree level.
  const std::vector<int64_t> inos = {1, 2, 9, 1LL << 28, (1LL << 28) + 1};
  const uint64_t far[] = {1ULL << 36,       (1ULL << 36) + 1,
                          (1ULL << 36) + 64, (1ULL << 36) + 4096,
                          1ULL << 50,       ~0ULL - 64,
                          ~0ULL};
  Rng rng(2024);
  uint64_t walked_far = 0;
  auto pick_ino = [&] { return inos[rng.Below(inos.size())]; };
  auto pick_index = [&]() -> uint64_t {
    if (rng.Below(8) == 0) {
      return far[rng.Below(std::size(far))];
    }
    return rng.Below(160);
  };

  auto body = [&]() -> Task<void> {
    for (int step = 0; step < 6000; ++step) {
      int64_t ino = pick_ino();
      uint64_t index = pick_index();
      switch (rng.Below(12)) {
        case 0:
        case 1:
          cache.InsertClean(ino, index);
          ref.InsertClean(ino, index);
          break;
        case 2:
        case 3:
        case 4: {
          Process& p = writers[rng.Below(3)];
          cache.MarkDirty(p, ino, index);
          ref.MarkDirty(p.pid(), ino, index, Simulator::current().Now());
          break;
        }
        case 5:
        case 6: {
          // Start writeback of one of the inode's dirty pages (or of any
          // resident page, which must be a no-op when it is clean).
          std::vector<uint64_t> dirty = ref.DirtyIndices(ino, ~0ULL);
          if (!dirty.empty() && rng.Below(4) != 0) {
            index = dirty[rng.Below(dirty.size())];
          }
          if (Page* page = cache.Find(ino, index)) {
            cache.MarkWritebackStarted(*page);
            ref.MarkWritebackStarted(ino, index);
          }
          break;
        }
        case 7:
        case 8:
          cache.MarkWritebackDone(ino, index);
          ref.MarkWritebackDone(ino, index);
          break;
        case 9:
          cache.Free(ino, index);
          ref.Free(ino, index);
          break;
        case 10:
          if (rng.Below(8) == 0) {
            EXPECT_EQ(cache.FreeInode(ino), ref.FreeInode(ino));
          }
          break;
        case 11:
          // Same-time steps make OldestDirtyInode ties.
          co_await Delay(Usec(static_cast<int64_t>(rng.Below(3))));
          break;
      }
      ExpectSameState(cache, ref, inos, rng);
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "diverged at step " << step;
        co_return;
      }
      for (const auto& [key, page] : ref.pages()) {
        walked_far += page.dirty && key.index >= (1ULL << 36);
      }
    }
  };
  sim.Spawn(body());
  sim.Run();
  EXPECT_GT(walked_far, 0u);  // the far indices were dirty at some point
}

}  // namespace
}  // namespace splitio
