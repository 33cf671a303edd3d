// Tests for the page cache: dirty tracking, hooks, throttling, eviction.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <numeric>
#include <vector>

#include "src/cache/page_cache.h"
#include "src/metrics/counters.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

std::vector<int32_t> Pids(const CauseSet& set) {
  return {set.pids().begin(), set.pids().end()};
}

class RecordingHooks : public PageCacheHooks {
 public:
  struct DirtyEvent {
    int32_t dirtier;
    int64_t ino;
    uint64_t index;
    bool was_dirty;
    size_t prev_causes;
  };
  void OnBufferDirty(Process& dirtier, Page& page, bool was_dirty,
                     const CauseSet& prev) override {
    dirty_events.push_back(
        {dirtier.pid(), page.ino, page.index, was_dirty, prev.size()});
  }
  void OnBufferFree(Page& page) override { freed.push_back(page.index); }

  std::vector<DirtyEvent> dirty_events;
  std::vector<uint64_t> freed;
};

// Regression: the key was packed as (ino << 36) | index with no masking, so
// an index >= 2^36 or an ino >= 2^28 silently aliased another inode's page.
TEST(PageCache, LargeIndexDoesNotAliasOtherPages) {
  Simulator sim;
  PageCache cache;
  // Under the packed key, (ino=1, index=2^36) collided with (ino=1, index=0).
  cache.InsertClean(1, 1ULL << 36);
  EXPECT_EQ(cache.Find(1, 0), nullptr);
  Page* page = cache.Find(1, 1ULL << 36);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->ino, 1);
  EXPECT_EQ(page->index, 1ULL << 36);
}

TEST(PageCache, LargeInoDoesNotAliasOtherInodes) {
  Simulator sim;
  PageCache cache;
  // Under the packed key, ino=2^28 shifted clean out of the 64-bit word and
  // collided with (ino=0, index=0).
  int64_t huge_ino = 1LL << 28;
  cache.InsertClean(huge_ino, 0);
  EXPECT_EQ(cache.Find(0, 0), nullptr);
  Page* page = cache.Find(huge_ino, 0);
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->ino, huge_ino);
}

TEST(PageCache, LargeIndexDirtyPagesAreDistinct) {
  Simulator sim;
  PageCache cache;
  Process p(1, "a");
  cache.MarkDirty(p, 7, 1ULL << 36);
  cache.MarkDirty(p, 7, 0);  // aliased pre-fix: counted as an overwrite
  EXPECT_EQ(cache.dirty_pages(), 2u);
  EXPECT_EQ(cache.dirty_pages_of(7), 2u);
}

TEST(PageCache, MarkDirtyTagsCauses) {
  Simulator sim;
  PageCache cache;
  Process p1(1, "a");
  Process p2(2, "b");
  cache.MarkDirty(p1, 10, 0);
  cache.MarkDirty(p2, 10, 0);  // second writer of the same page
  Page* page = cache.Find(10, 0);
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(page->causes.Contains(1));
  EXPECT_TRUE(page->causes.Contains(2));
  EXPECT_EQ(cache.dirty_pages(), 1u);
}

TEST(PageCache, ProxyCausesPropagateToPages) {
  Simulator sim;
  PageCache cache;
  Process proxy(99, "journal");
  proxy.BeginProxy(CauseSet{3, 4});
  cache.MarkDirty(proxy, 11, 5);
  Page* page = cache.Find(11, 5);
  ASSERT_NE(page, nullptr);
  EXPECT_TRUE(page->causes.Contains(3));
  EXPECT_TRUE(page->causes.Contains(4));
  EXPECT_FALSE(page->causes.Contains(99));  // the proxy itself is not a cause
}

TEST(PageCache, HooksFireOnDirtyAndOverwrite) {
  Simulator sim;
  PageCache cache;
  RecordingHooks hooks;
  cache.set_hooks(&hooks);
  Process p1(1, "a");
  cache.MarkDirty(p1, 10, 7);
  cache.MarkDirty(p1, 10, 7);  // overwrite of a dirty buffer
  ASSERT_EQ(hooks.dirty_events.size(), 2u);
  EXPECT_FALSE(hooks.dirty_events[0].was_dirty);
  EXPECT_EQ(hooks.dirty_events[0].prev_causes, 0u);
  EXPECT_TRUE(hooks.dirty_events[1].was_dirty);
  EXPECT_EQ(hooks.dirty_events[1].prev_causes, 1u);
}

TEST(PageCache, BufferFreeHookFiresForDirtyPages) {
  Simulator sim;
  PageCache cache;
  RecordingHooks hooks;
  cache.set_hooks(&hooks);
  Process p1(1, "a");
  cache.MarkDirty(p1, 10, 3);
  cache.InsertClean(10, 4);
  cache.Free(10, 3);  // dirty: hook fires
  cache.Free(10, 4);  // clean: no hook
  EXPECT_EQ(hooks.freed, (std::vector<uint64_t>{3}));
  EXPECT_EQ(cache.dirty_pages(), 0u);
}

TEST(PageCache, WritebackClearsDirtyAndTags) {
  Simulator sim;
  PageCache cache;
  Process p1(1, "a");
  Page& page = cache.MarkDirty(p1, 10, 0);
  EXPECT_EQ(cache.dirty_pages(), 1u);
  cache.MarkWritebackStarted(page);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_TRUE(page.causes.empty());
  EXPECT_EQ(page.writeback_ios, 1u);
  cache.MarkWritebackDone(10, 0);
  EXPECT_EQ(cache.Find(10, 0)->writeback_ios, 0u);
}

// Regression: a page re-dirtied while its writeback I/O is in flight and
// flushed again was counted under writeback twice and uncounted once, so
// one page per such flush stayed counted against the dirty limit forever.
TEST(PageCache, RedirtiedPageUnderWritebackIsCountedOnce) {
  Simulator sim;
  PageCache::Config config;
  config.clean_capacity_pages = 0;
  PageCache cache(config);
  Process p1(1, "a");
  cache.MarkWritebackStarted(cache.MarkDirty(p1, 10, 0));
  cache.MarkWritebackStarted(cache.MarkDirty(p1, 10, 0));
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(cache.writeback_pages(), 1u);
  cache.MarkWritebackDone(10, 0);
  // The second I/O is still in flight: counted, and not evictable.
  EXPECT_EQ(cache.writeback_pages(), 1u);
  EXPECT_NE(cache.Find(10, 0), nullptr);
  cache.MarkWritebackDone(10, 0);
  EXPECT_EQ(cache.writeback_pages(), 0u);
  EXPECT_EQ(cache.Find(10, 0), nullptr);  // clean now, and evicted
}

TEST(PageCache, ThrottleBlocksUntilDrained) {
  Simulator sim;
  PageCache::Config config;
  config.total_ram = 100 * kPageSize;  // dirty limit = 20 pages
  config.writeback_daemon = false;
  PageCache cache(config);
  Process p1(1, "a");
  for (int i = 0; i < 25; ++i) {
    cache.MarkDirty(p1, 10, static_cast<uint64_t>(i));
  }
  bool resumed = false;
  auto writer = [&]() -> Task<void> {
    co_await cache.ThrottleDirty();
    resumed = true;
  };
  auto drainer = [&]() -> Task<void> {
    co_await Delay(Msec(10));
    // Simulate writeback of 10 pages: submission alone must NOT unblock the
    // throttle (pages under writeback still count); completion does.
    for (int i = 0; i < 10; ++i) {
      cache.MarkWritebackStarted(*cache.Find(10, static_cast<uint64_t>(i)));
    }
    EXPECT_EQ(cache.writeback_pages(), 10u);
    co_await Delay(Msec(5));
    for (int i = 0; i < 10; ++i) {
      cache.MarkWritebackDone(10, static_cast<uint64_t>(i));
    }
  };
  sim.Spawn(writer());
  sim.Spawn(drainer());
  sim.Run();
  EXPECT_TRUE(resumed);
  EXPECT_EQ(sim.Now(), Msec(15));  // completion, not submission
}

TEST(PageCache, CleanPagesEvictedFifo) {
  Simulator sim;
  PageCache::Config config;
  config.clean_capacity_pages = 4;
  PageCache cache(config);
  for (uint64_t i = 0; i < 8; ++i) {
    cache.InsertClean(1, i);
  }
  EXPECT_EQ(cache.pages_resident(), 4u);
  EXPECT_EQ(cache.Find(1, 0), nullptr);  // oldest evicted
  EXPECT_NE(cache.Find(1, 7), nullptr);  // newest resident
}

TEST(PageCache, DirtyPagesNeverEvicted) {
  Simulator sim;
  PageCache::Config config;
  config.clean_capacity_pages = 2;
  PageCache cache(config);
  Process p1(1, "a");
  cache.MarkDirty(p1, 1, 0);
  for (uint64_t i = 1; i < 6; ++i) {
    cache.InsertClean(1, i);
  }
  EXPECT_NE(cache.Find(1, 0), nullptr);
  EXPECT_TRUE(cache.Find(1, 0)->dirty);
}

TEST(PageCache, OldestDirtyInodeOrdering) {
  Simulator sim;
  PageCache cache;
  Process p1(1, "a");
  auto body = [&]() -> Task<void> {
    cache.MarkDirty(p1, 7, 0);
    co_await Delay(Msec(5));
    cache.MarkDirty(p1, 8, 0);
  };
  sim.Spawn(body());
  sim.Run();
  EXPECT_EQ(cache.OldestDirtyInode(), 7);
  cache.MarkWritebackStarted(*cache.Find(7, 0));
  EXPECT_EQ(cache.OldestDirtyInode(), 8);
}

// Once the pools, the FIFO and the first-dirty map have grown to the
// working set, a dirty -> writeback -> done -> evict cycle of range calls
// (with one- and two-cause tags, and a proxy writer) touches the heap no
// more.
TEST(PageCache, SteadyStateCycleIsAllocationFreeAfterWarmup) {
  Simulator sim;
  PageCache::Config config;
  config.clean_capacity_pages = 24;
  PageCache cache(config);
  Process a(1, "a");
  Process b(2, "b");
  Process proxy(3, "pdflush");
  CauseSet served{1, 2};
  std::array<uint64_t, 64> indices;
  std::iota(indices.begin(), indices.end(), 0);
  auto cycle = [&] {
    for (int64_t ino : {5, 6}) {
      cache.MarkDirtyRange(a, ino, 0, 64);
      for (uint64_t i = 0; i < 64; i += 4) {
        cache.MarkDirtyRange(b, ino, i, 1);
      }
    }
    proxy.BeginProxy(served);
    cache.MarkDirtyRange(proxy, 7, 0, 1);
    proxy.EndProxy();
    for (int64_t ino : {5, 6, 7}) {
      cache.StartWriteback(ino, indices, [](const Page&) {});
      cache.EndWriteback(ino, 0, 64);
    }
  };
  cycle();
  cycle();
  uint64_t before = counters().allocs;
  size_t causes = 0;
  for (int round = 0; round < 50; ++round) {
    cycle();
    causes += a.Causes().size() + proxy.Causes().size();
  }
  EXPECT_EQ(counters().allocs, before);
  EXPECT_EQ(causes, 100u);
  EXPECT_EQ(cache.dirty_pages(), 0u);
  EXPECT_EQ(cache.pages_resident(), 24u);  // the rest was evicted
}

// Eviction keeps the leaf of the last page it examined across calls. A
// leaf it found missing can be created again before the next eviction, so
// it must look such a leaf up again rather than remember it as missing.
TEST(PageCache, EvictionFindsALeafCreatedAfterFindingItMissing) {
  Simulator sim;
  PageCache::Config config;
  config.clean_capacity_pages = 1;
  config.writeback_daemon = false;
  PageCache cache(config);
  Process p(1, "a");
  cache.InsertClean(1, 64);
  cache.MarkWritebackStarted(cache.MarkDirty(p, 1, 64));
  cache.MarkDirtyRange(p, 1, 0, 2);
  std::array<uint64_t, 2> low = {0, 1};
  cache.StartWriteback(1, low, [](const Page&) {});
  // Page 64's I/O ends, so the FIFO holds it twice. The first entry evicts
  // it, which frees its leaf; the second finds the leaf missing, and the
  // FIFO runs dry while pages 0 and 1 keep the cache over capacity.
  cache.MarkWritebackDone(1, 64);
  ASSERT_EQ(cache.Find(1, 64), nullptr);
  ASSERT_EQ(cache.pages_resident(), 2u);
  // A read re-creates the leaf; over capacity, its page goes at once.
  cache.InsertClean(1, 65);
  EXPECT_EQ(cache.Find(1, 65), nullptr);
  EXPECT_EQ(cache.pages_resident(), 2u);
}

TEST(TagMemory, AccountantTracksCauseSetFootprint) {
  TagMemoryAccountant::Instance().Reset();
  {
    CauseSet set;
    for (int i = 0; i < 100; ++i) {
      set.Add(i);
    }
    EXPECT_GE(TagMemoryAccountant::Instance().current_bytes(),
              100 * sizeof(int32_t));
  }
  EXPECT_EQ(TagMemoryAccountant::Instance().current_bytes(), 0u);
  EXPECT_GE(TagMemoryAccountant::Instance().peak_bytes(),
            100 * sizeof(int32_t));
}

TEST(CauseSet, SetSemantics) {
  CauseSet a{3, 1, 2, 3, 1};
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(Pids(a), (std::vector<int32_t>{1, 2, 3}));
  CauseSet b{2, 5};
  a.Merge(b);
  EXPECT_EQ(Pids(a), (std::vector<int32_t>{1, 2, 3, 5}));
  EXPECT_TRUE(a.Contains(5));
  EXPECT_FALSE(a.Contains(4));
  a.Clear();
  EXPECT_TRUE(a.empty());
}

// The tag CauseSet replaced: a sorted std::vector whose capacity was the
// accounted footprint. Accounts into its own counter.
struct VectorTag {
  static inline size_t bytes = 0;
  VectorTag() = default;
  VectorTag(const VectorTag& other) : pids(other.pids) { bytes += Footprint(); }
  VectorTag(VectorTag&& other) noexcept : pids(std::move(other.pids)) {}
  VectorTag& operator=(const VectorTag& other) {
    if (this != &other) {
      bytes -= Footprint();
      pids = other.pids;
      bytes += Footprint();
    }
    return *this;
  }
  VectorTag& operator=(VectorTag&& other) noexcept {
    if (this != &other) {
      bytes -= Footprint();
      pids = std::move(other.pids);
    }
    return *this;
  }
  ~VectorTag() { bytes -= Footprint(); }
  void Add(int32_t pid) {
    auto it = std::lower_bound(pids.begin(), pids.end(), pid);
    if (it != pids.end() && *it == pid) {
      return;
    }
    size_t before = Footprint();
    pids.insert(it, pid);
    bytes += Footprint() - before;
  }
  void Clear() {
    bytes -= Footprint();
    pids.clear();
    pids.shrink_to_fit();
  }
  size_t Footprint() const { return pids.capacity() * sizeof(int32_t); }
  std::vector<int32_t> pids;
};

// Accounted bytes after each step of a fixed history of Add, copy, copy
// assignment, move, move assignment and Clear over sets of 0-5 pids.
template <typename Tag>
std::vector<size_t> FootprintHistory(const std::function<size_t()>& bytes) {
  const int32_t order[] = {40, 10, 30, 50, 20};
  std::vector<size_t> history;
  auto note = [&] { history.push_back(bytes()); };
  auto build = [&](Tag& tag, int n, int32_t base) {
    for (int i = 0; i < n; ++i) {
      tag.Add(base + order[i]);
      note();
    }
  };
  for (int n = 0; n <= 5; ++n) {
    Tag set;
    build(set, n, 0);
    {
      Tag copy(set);
      note();
      for (int m = 0; m <= 5; ++m) {
        Tag dst;
        build(dst, m, 1000);
        dst = set;
        note();
        dst.Add(7);
        note();
      }
      note();
      Tag moved(std::move(copy));
      note();
      for (int m = 0; m <= 5; ++m) {
        Tag target;
        build(target, m, 2000);
        Tag source(moved);
        note();
        target = std::move(source);
        note();
      }
      moved.Clear();
      note();
      moved.Add(1);
      note();
    }
    note();
    set.Clear();
    note();
  }
  return history;
}

TEST(CauseSet, FootprintMatchesVectorCapacityRule) {
  TagMemoryAccountant::Instance().Reset();
  VectorTag::bytes = 0;
  std::vector<size_t> inline_tags = FootprintHistory<CauseSet>(
      [] { return TagMemoryAccountant::Instance().current_bytes(); });
  std::vector<size_t> vector_tags =
      FootprintHistory<VectorTag>([] { return VectorTag::bytes; });
  EXPECT_EQ(inline_tags, vector_tags);
  EXPECT_EQ(TagMemoryAccountant::Instance().current_bytes(), 0u);
  // Sets of up to two pids stay inline; the capacity rule still reports
  // their bytes.
  uint64_t before = counters().allocs;
  CauseSet two{3, 1};
  EXPECT_EQ(counters().allocs, before);
  EXPECT_EQ(TagMemoryAccountant::Instance().current_bytes(),
            2 * sizeof(int32_t));
}

TEST(CauseSet, ProcessIdentityIsNotATag) {
  TagMemoryAccountant::Instance().Reset();
  Process p(7, "p");
  EXPECT_EQ(TagMemoryAccountant::Instance().current_bytes(), 0u);
  const CauseSet& self = p.Causes();
  EXPECT_EQ(Pids(self), (std::vector<int32_t>{7}));
  EXPECT_EQ(&self, &p.Causes());  // built once, not per call
  CauseSet copy = self;           // a copy is a tag
  EXPECT_EQ(TagMemoryAccountant::Instance().current_bytes(), sizeof(int32_t));
}

TEST(CauseSet, CopyAndMovePreserveAccounting) {
  TagMemoryAccountant::Instance().Reset();
  {
    CauseSet a{1, 2, 3};
    CauseSet b = a;              // copy: double accounting
    CauseSet c = std::move(a);   // move: transfers footprint
    (void)b;
    (void)c;
  }
  EXPECT_EQ(TagMemoryAccountant::Instance().current_bytes(), 0u);
}

}  // namespace
}  // namespace splitio
