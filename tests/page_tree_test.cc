// Randomized property test of the page cache's per-inode page trees against
// a brute-force reference: the storage the cache had before the trees (one
// hash map of pages plus a sorted dirty index per inode), driving the same
// first-dirty map and clean FIFO. The reference does the range calls
// (dirtying, writeback start and end, dirty-page walks) page by page. Every
// step is followed by a comparison of its hook calls and counters, then of
// everything the cache exposes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/metrics/counters.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

struct PageKey {
  int64_t ino = 0;
  uint64_t index = 0;
  bool operator==(const PageKey&) const = default;
};

struct PageKeyHash {
  size_t operator()(const PageKey& k) const {
    return std::hash<int64_t>()(k.ino) * 31 + std::hash<uint64_t>()(k.index);
  }
};

// One buffer-dirty hook call.
struct HookCall {
  int32_t pid;
  int64_t ino;
  uint64_t index;
  bool was_dirty;
  std::vector<int32_t> prev;
  bool operator==(const HookCall&) const = default;
};

std::vector<int32_t> Pids(const CauseSet& set) {
  return {set.pids().begin(), set.pids().end()};
}

class RecordingHooks : public PageCacheHooks {
 public:
  void OnBufferDirty(Process& dirtier, Page& page, bool was_dirty,
                     const CauseSet& prev) override {
    calls.push_back(
        {dirtier.pid(), page.ino, page.index, was_dirty, Pids(prev)});
  }
  std::vector<HookCall> calls;
};

// The counters a step moves.
struct CacheCounts {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t dirtied = 0;
  uint64_t flushed = 0;
  bool operator==(const CacheCounts&) const = default;
};

CacheCounts CountsNow() {
  const Counters& c = counters();
  return {c.cache_lookups, c.cache_hits, c.pages_dirtied, c.wb_pages_flushed};
}

CacheCounts CountsSince(const CacheCounts& before) {
  CacheCounts now = CountsNow();
  return {now.lookups - before.lookups, now.hits - before.hits,
          now.dirtied - before.dirtied, now.flushed - before.flushed};
}

class ReferenceCache {
 public:
  struct RefPage {
    bool dirty = false;
    uint32_t writeback_ios = 0;
    std::vector<int32_t> causes;
    Nanos dirtied_at = 0;
  };
  // What one step did, to compare with the cache's hook calls and counter
  // deltas.
  struct StepLog {
    CacheCounts counts;
    std::vector<HookCall> hooks;
    std::vector<PageKey> evicted;
    // (index, causes) of each page a writeback start visited, in order.
    std::vector<std::pair<uint64_t, std::vector<int32_t>>> started;
    // Completions that evicted a page of the leaf they were completing,
    // and those that emptied that leaf.
    uint64_t own_leaf_evictions = 0;
    uint64_t own_leaf_emptied = 0;
  };

  explicit ReferenceCache(uint64_t clean_capacity)
      : clean_capacity_(clean_capacity) {}

  StepLog TakeLog() { return std::exchange(log_, StepLog{}); }

  void InsertClean(int64_t ino, uint64_t index) {
    auto [it, inserted] = pages_.try_emplace(PageKey{ino, index});
    if (inserted) {
      clean_fifo_.push_back(PageKey{ino, index});
      EvictCleanIfNeeded();
    }
  }

  bool Find(int64_t ino, uint64_t index) {
    ++log_.counts.lookups;
    bool hit = pages_.count(PageKey{ino, index}) != 0;
    log_.counts.hits += hit;
    return hit;
  }

  void MarkDirty(int32_t pid, int64_t ino, uint64_t index, Nanos now) {
    ++log_.counts.dirtied;
    RefPage& page = pages_[PageKey{ino, index}];
    log_.hooks.push_back({pid, ino, index, page.dirty, page.causes});
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
    if (!Find(ino, index)) {
      return;
    }
    RefPage& page = pages_.at(PageKey{ino, index});
    if (!page.dirty) {
      return;
    }
    log_.started.emplace_back(index, page.causes);
    ++log_.counts.flushed;
    page.dirty = false;
    if (page.writeback_ios++ == 0) {
      ++writeback_pages_;
    }
    page.causes.clear();
    --dirty_pages_;
    Undirty(ino, index);
  }

  void MarkWritebackDone(int64_t ino, uint64_t index) {
    if (!Find(ino, index)) {
      return;
    }
    RefPage& page = pages_.at(PageKey{ino, index});
    if (page.writeback_ios > 0 && --page.writeback_ios == 0) {
      --writeback_pages_;
    }
    clean_fifo_.push_back(PageKey{ino, index});
    size_t evicted_before = log_.evicted.size();
    EvictCleanIfNeeded();
    uint64_t leaf = index >> 6;
    bool own = false;
    for (size_t i = evicted_before; i < log_.evicted.size(); ++i) {
      own |= log_.evicted[i].ino == ino && log_.evicted[i].index >> 6 == leaf;
    }
    if (own) {
      ++log_.own_leaf_evictions;
      bool emptied = true;
      for (uint64_t i = 0; i < 64 && emptied; ++i) {
        emptied = pages_.count(PageKey{ino, (leaf << 6) | i}) == 0;
      }
      log_.own_leaf_emptied += emptied;
    }
  }

  // The dirty pages among the first `max` of `ino`, as ForEachDirtyPage
  // visits them: each counts as a lookup and a hit.
  std::vector<std::pair<uint64_t, std::vector<int32_t>>> VisitDirty(
      int64_t ino, uint64_t max) {
    std::vector<std::pair<uint64_t, std::vector<int32_t>>> out;
    for (uint64_t index : DirtyIndices(ino, max)) {
      Find(ino, index);
      out.emplace_back(index, pages_.at(PageKey{ino, index}).causes);
    }
    return out;
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

  // Resident pages of `ino` with writeback I/O in flight, ascending.
  std::vector<uint64_t> UnderWriteback(int64_t ino) const {
    std::vector<uint64_t> out;
    for (const auto& [key, page] : pages_) {
      if (key.ino == ino && page.writeback_ios > 0) {
        out.push_back(key.index);
      }
    }
    std::sort(out.begin(), out.end());
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
  const RefPage* page(int64_t ino, uint64_t index) const {
    auto it = pages_.find(PageKey{ino, index});
    return it == pages_.end() ? nullptr : &it->second;
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
      log_.evicted.push_back(key);
    }
  }

  uint64_t clean_capacity_;
  std::unordered_map<PageKey, RefPage, PageKeyHash> pages_;
  std::unordered_map<int64_t, std::map<uint64_t, Nanos>> dirty_index_;
  std::unordered_map<int64_t, Nanos> inode_first_dirty_;
  uint64_t dirty_pages_ = 0;
  uint64_t writeback_pages_ = 0;
  std::deque<PageKey> clean_fifo_;
  StepLog log_;
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
    ASSERT_EQ(Pids(page->causes), want.causes);
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

// How often the range steps met the cases they are meant to cover.
struct Coverage {
  uint64_t dirty_across_leaves = 0;
  uint64_t dirty_mixed = 0;  // absent, clean, dirty and under writeback
  uint64_t start_mixed = 0;
  uint64_t end_mixed = 0;
  uint64_t end_scattered = 0;
  uint64_t own_leaf_evictions = 0;
  uint64_t own_leaf_emptied = 0;
};

// Runs `steps` random steps on a cache and the reference, comparing them
// after every step, and adds up what the range steps met in `seen`.
void MatchReference(uint64_t clean_capacity, int steps, uint64_t seed,
                    Coverage* seen_total) {
  Simulator sim;
  PageCache::Config config;
  config.clean_capacity_pages = clean_capacity;
  config.writeback_daemon = false;
  PageCache cache(config);
  RecordingHooks hooks;
  cache.set_hooks(&hooks);
  ReferenceCache ref(config.clean_capacity_pages);
  Process writers[] = {Process(1, "a"), Process(2, "b"), Process(3, "c")};
  // Inodes and indices beyond the old packed key's 2^28 / 2^36 limits, and
  // indices that need every tree level.
  const std::vector<int64_t> inos = {1, 2, 9, 1LL << 28, (1LL << 28) + 1};
  const uint64_t far[] = {1ULL << 36,       (1ULL << 36) + 1,
                          (1ULL << 36) + 64, (1ULL << 36) + 4096,
                          1ULL << 50,       ~0ULL - 64,
                          ~0ULL};
  Rng rng(seed);
  uint64_t walked_far = 0;
  Coverage& seen = *seen_total;
  auto pick_ino = [&] { return inos[rng.Below(inos.size())]; };
  auto pick_index = [&]() -> uint64_t {
    if (rng.Below(8) == 0) {
      return far[rng.Below(std::size(far))];
    }
    return rng.Below(160);
  };
  // A range of up to 100 pages from `first`, cut where the index space
  // ends.
  auto pick_count = [&](uint64_t first) -> uint64_t {
    uint64_t count = 1 + rng.Below(100);
    uint64_t room = ~0ULL - first;
    return count - 1 > room ? room + 1 : count;
  };
  // Which of the four page states occur in `indices` of `ino`.
  auto states = [&](int64_t ino, std::span<const uint64_t> indices) {
    unsigned mask = 0;
    for (uint64_t index : indices) {
      const ReferenceCache::RefPage* page = ref.page(ino, index);
      if (page == nullptr) {
        mask |= 1;
      } else {
        mask |= page->dirty ? 4 : page->writeback_ios > 0 ? 8 : 2;
      }
    }
    return mask;
  };
  auto mixed = [](unsigned mask) { return std::popcount(mask) >= 3; };
  // Ascending indices near `ino`'s dirty and under-writeback pages, plus
  // random ones: a mix of absent, clean, dirty and in-flight pages.
  auto pick_indices = [&](int64_t ino) {
    std::vector<uint64_t> out;
    for (uint64_t index : ref.DirtyIndices(ino, ~0ULL)) {
      if (rng.Below(4) != 0) {
        out.push_back(index);
      }
    }
    for (uint64_t index : ref.UnderWriteback(ino)) {
      if (rng.Below(2) == 0) {
        out.push_back(index);
      }
    }
    for (uint64_t n = rng.Below(12); n > 0; --n) {
      out.push_back(pick_index());
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };

  auto body = [&]() -> Task<void> {
    for (int step = 0; step < steps; ++step) {
      int64_t ino = pick_ino();
      uint64_t index = pick_index();
      CacheCounts counts_before = CountsNow();
      hooks.calls.clear();
      std::vector<std::pair<uint64_t, std::vector<int32_t>>> visited;
      switch (rng.Below(17)) {
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
          ref.Find(ino, index);
          if (Page* page = cache.Find(ino, index)) {
            if (page->dirty) {
              visited.emplace_back(index, Pids(page->causes));
            }
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
        case 12:
        case 13: {
          // A write: dirty a range, often across leaf boundaries.
          Process& p = writers[rng.Below(3)];
          uint64_t count = pick_count(index);
          std::vector<uint64_t> range(count);
          for (uint64_t i = 0; i < count; ++i) {
            range[i] = index + i;
          }
          seen.dirty_across_leaves += index >> 6 != (index + count - 1) >> 6;
          seen.dirty_mixed += mixed(states(ino, range));
          cache.MarkDirtyRange(p, ino, index, count);
          for (uint64_t i : range) {
            ref.MarkDirty(p.pid(), ino, i, Simulator::current().Now());
          }
          break;
        }
        case 14: {
          // A flush: start writeback of a mixed, ascending index list.
          std::vector<uint64_t> indices = pick_indices(ino);
          seen.start_mixed += mixed(states(ino, indices));
          cache.StartWriteback(ino, indices, [&](const Page& page) {
            EXPECT_TRUE(page.dirty);
            visited.emplace_back(page.index, Pids(page.causes));
          });
          for (uint64_t i : indices) {
            ref.MarkWritebackStarted(ino, i);
          }
          break;
        }
        case 15: {
          // A request completes: consecutive pages from an in-flight one,
          // or every other page of such a range (scattered).
          std::vector<uint64_t> in_flight = ref.UnderWriteback(ino);
          if (!in_flight.empty() && rng.Below(4) != 0) {
            index = in_flight[rng.Below(in_flight.size())];
            index -= std::min<uint64_t>(index, rng.Below(8));
          }
          uint64_t count = pick_count(index);
          std::vector<uint64_t> pages;
          bool scattered = rng.Below(3) == 0;
          for (uint64_t i = 0; i < count; ++i) {
            if (!scattered || rng.Below(2) == 0) {
              pages.push_back(index + i);
            }
          }
          if (pages.empty()) {
            break;
          }
          seen.end_mixed += mixed(states(ino, pages));
          if (scattered) {
            seen.end_scattered += pages.back() - pages.front() + 1 !=
                                  pages.size();
            cache.EndWriteback(ino, pages);
          } else {
            cache.EndWriteback(ino, index, count);
          }
          for (uint64_t i : pages) {
            ref.MarkWritebackDone(ino, i);
          }
          break;
        }
        case 16: {
          // A writeback proxy gathers the causes it serves.
          uint64_t max = rng.Below(3) == 0 ? ~0ULL : 1 + rng.Below(40);
          cache.ForEachDirtyPage(ino, max, [&](const Page& page) {
            visited.emplace_back(page.index, Pids(page.causes));
          });
          EXPECT_EQ(visited, ref.VisitDirty(ino, max));
          visited.clear();
          break;
        }
      }
      ReferenceCache::StepLog log = ref.TakeLog();
      EXPECT_EQ(CountsSince(counts_before), log.counts);
      EXPECT_EQ(hooks.calls, log.hooks);
      EXPECT_EQ(visited, log.started);
      for (const PageKey& key : log.evicted) {
        EXPECT_EQ(cache.Find(key.ino, key.index), nullptr);
      }
      seen.own_leaf_evictions += log.own_leaf_evictions;
      seen.own_leaf_emptied += log.own_leaf_emptied;
      ExpectSameState(cache, ref, inos, rng);
      if (::testing::Test::HasFailure()) {
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

TEST(PageTree, MatchesBruteForceReference) {
  Coverage seen;
  MatchReference(40, 6000, 2024, &seen);
  // A clean capacity of two keeps the clean FIFO running dry, so eviction
  // meets leaves created after it last found them missing.
  MatchReference(2, 3000, 7, &seen);
  // Each case the range calls must handle came up.
  EXPECT_GT(seen.dirty_across_leaves, 50u);
  EXPECT_GT(seen.dirty_mixed, 20u);
  EXPECT_GT(seen.start_mixed, 20u);
  EXPECT_GT(seen.end_mixed, 20u);
  EXPECT_GT(seen.end_scattered, 20u);
  EXPECT_GT(seen.own_leaf_evictions, 20u);
  EXPECT_GT(seen.own_leaf_emptied, 5u);
}

}  // namespace
}  // namespace splitio
