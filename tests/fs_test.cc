// File-system tests: delayed allocation, writeback proxying, ext4 ordered
// journaling (transaction entanglement), XFS logical logging, fsync
// semantics.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <unordered_map>

#include "src/block/block_layer.h"
#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/fs/ext4.h"
#include "src/fs/extent_map.h"
#include "src/fs/xfs.h"
#include "src/metrics/counters.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

// Minimal harness: HDD + noop elevator + ext4 or XFS.
struct Harness {
  explicit Harness(StackConfig::FsKind fs_kind = StackConfig::FsKind::kExt4,
                   bool writeback_daemon = true) {
    StackConfig config;
    config.fs = fs_kind;
    config.cache.writeback_daemon = writeback_daemon;
    cpu = std::make_unique<CpuModel>(8);
    stack = std::make_unique<StorageStack>(config, cpu.get(), nullptr,
                                           std::make_unique<NoopElevator>());
    stack->Start();
  }
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<StorageStack> stack;
};

TEST(FsBase, CreateAndLookup) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  int64_t ino = -1;
  auto body = [&]() -> Task<void> {
    ino = co_await h.stack->kernel().Creat(*p, "/a");
    EXPECT_EQ(h.stack->fs().Lookup("/a"), ino);
    EXPECT_EQ(h.stack->fs().Lookup("/missing"), -1);
    int64_t again = co_await h.stack->kernel().Creat(*p, "/a");
    EXPECT_EQ(again, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(2));
  EXPECT_GE(ino, 2);
}

TEST(FsBase, WriteBuffersWithoutDeviceIo) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 64 * kPageSize);
    EXPECT_EQ(h.stack->cache().dirty_pages(), 64u);
    EXPECT_EQ(h.stack->device().total_bytes_written(), 0u);
    EXPECT_EQ(h.stack->fs().FileSize(ino), 64u * kPageSize);
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
}

TEST(FsBase, FsyncFlushesDataToDevice) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 64 * kPageSize);
    co_await h.stack->kernel().Fsync(*p, ino);
    EXPECT_EQ(h.stack->cache().dirty_pages(), 0u);
    // Data + journal record reached the device.
    EXPECT_GE(h.stack->device().total_bytes_written(), 64u * kPageSize);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
}

TEST(FsBase, ReadBackAfterFlushHitsDeviceThenCache) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = h.stack->fs().CreatePreallocated("/data", 1 << 20);
    uint64_t before = h.stack->device().total_bytes_read();
    co_await h.stack->kernel().Read(*p, ino, 0, 1 << 20);
    EXPECT_EQ(h.stack->device().total_bytes_read() - before, 1u << 20);
    // Second read: served from cache.
    before = h.stack->device().total_bytes_read();
    co_await h.stack->kernel().Read(*p, ino, 0, 1 << 20);
    EXPECT_EQ(h.stack->device().total_bytes_read() - before, 0u);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
}

TEST(FsBase, HoleReadsCostNoIo) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/sparse");
    co_await h.stack->kernel().Read(*p, ino, 0, 16 * kPageSize);
    EXPECT_EQ(h.stack->device().total_bytes_read(), 0u);
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
}

TEST(FsBase, WritebackDaemonFlushesExpiredDirtyData) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 32 * kPageSize);
  };
  sim.Spawn(body());
  // dirty_expire (30 s) + writeback interval: data flushed without fsync.
  sim.Run(Sec(40));
  EXPECT_EQ(h.stack->cache().dirty_pages(), 0u);
  EXPECT_GE(h.stack->device().total_bytes_written(), 32u * kPageSize);
}

TEST(FsBase, WritebackSubmitterIsProxyWithRealCauses) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  // Observe requests arriving at the block layer.
  std::vector<CauseSet> write_causes;
  std::vector<int32_t> submitter_pids;
  h.stack->block().set_completion_hook([&](const BlockRequest& req) {
    if (req.is_write && !req.is_journal) {
      write_causes.push_back(req.causes);
      submitter_pids.push_back(req.submitter->pid());
    }
  });
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 32 * kPageSize);
  };
  sim.Spawn(body());
  sim.Run(Sec(40));
  ASSERT_FALSE(write_causes.empty());
  // Every write (data writeback and metadata checkpoint alike) is tagged
  // with the app as its cause, never with a kernel task; at least one was
  // submitted by the writeback proxy.
  bool saw_writeback_submission = false;
  for (size_t i = 0; i < write_causes.size(); ++i) {
    EXPECT_TRUE(write_causes[i].Contains(p->pid())) << i;
    EXPECT_FALSE(write_causes[i].Contains(h.stack->writeback_task().pid()));
    if (submitter_pids[i] == h.stack->writeback_task().pid()) {
      saw_writeback_submission = true;
    }
  }
  EXPECT_TRUE(saw_writeback_submission);
}

TEST(FsBase, ContiguousDirtyPagesMergeIntoLargeRequests) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  uint64_t write_reqs = 0;
  uint64_t write_bytes = 0;
  h.stack->block().set_completion_hook([&](const BlockRequest& req) {
    if (req.is_write && !req.is_journal) {
      ++write_reqs;
      write_bytes += req.bytes;
    }
  });
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 512 * kPageSize);  // 2 MB
    co_await h.stack->kernel().Fsync(*p, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  EXPECT_EQ(write_bytes, 512u * kPageSize);
  // 2 MB in >=1 MB chunks: 2-3 requests, not 512.
  EXPECT_LE(write_reqs, 4u);
}

TEST(FsBase, UnlinkDropsDirtyPages) {
  Simulator sim;
  Harness h(StackConfig::FsKind::kExt4, /*writeback_daemon=*/false);
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 16 * kPageSize);
    EXPECT_EQ(h.stack->cache().dirty_pages(), 16u);
    co_await h.stack->kernel().Unlink(*p, ino);
    EXPECT_EQ(h.stack->cache().dirty_pages(), 0u);
    EXPECT_EQ(h.stack->fs().Lookup("/f"), -1);
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
  EXPECT_EQ(h.stack->device().total_bytes_written(), 0u);  // never flushed
}

// Regression (fs level): overwriting pages whose background writeback is
// still in flight, then fsyncing, must leave nothing counted under
// writeback once every I/O has completed.
TEST(FsBase, OverwriteDuringWritebackLeavesNoWritebackCount) {
  Simulator sim;
  Harness h(StackConfig::FsKind::kExt4, /*writeback_daemon=*/false);
  Process* p = h.stack->NewProcess("app");
  bool fsynced = false;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 64 * kPageSize);
    // Background flush: submits the 64 pages and returns at once.
    uint64_t submitted = co_await h.stack->fs().WritebackInode(ino, 64);
    EXPECT_EQ(submitted, 64u);
    EXPECT_EQ(h.stack->cache().writeback_pages(), 64u);
    // Overwrite them while their I/O is in flight, then flush them again.
    co_await h.stack->kernel().Write(*p, ino, 0, 64 * kPageSize);
    EXPECT_EQ(h.stack->cache().dirty_pages(), 64u);
    co_await h.stack->kernel().Fsync(*p, ino);
    fsynced = true;
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  ASSERT_TRUE(fsynced);
  EXPECT_EQ(h.stack->cache().dirty_pages(), 0u);
  EXPECT_EQ(h.stack->cache().writeback_pages(), 0u);
}

// Same, with the file unlinked while the overwritten pages' first I/O is
// still in flight: the freed pages' I/Os complete into nothing.
TEST(FsBase, UnlinkDuringWritebackLeavesNoWritebackCount) {
  Simulator sim;
  Harness h(StackConfig::FsKind::kExt4, /*writeback_daemon=*/false);
  Process* p = h.stack->NewProcess("app");
  bool unlinked = false;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 64 * kPageSize);
    co_await h.stack->fs().WritebackInode(ino, 64);
    co_await h.stack->kernel().Write(*p, ino, 0, 64 * kPageSize);
    co_await h.stack->kernel().Unlink(*p, ino);
    unlinked = true;
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  ASSERT_TRUE(unlinked);
  EXPECT_EQ(h.stack->cache().dirty_pages(), 0u);
  EXPECT_EQ(h.stack->cache().writeback_pages(), 0u);
}

// The last page of one allocation chunk and the first page of a later chunk
// allocated right after it have consecutive sectors, so one request writes
// both; its completion must end the writeback of exactly those two pages.
TEST(FsBase, PagesOfNonAdjacentChunksInOneRequestAllLeaveWriteback) {
  Simulator sim;
  Harness h(StackConfig::FsKind::kExt4, /*writeback_daemon=*/false);
  Process* p = h.stack->NewProcess("app");
  const uint64_t chunk = FsBase::Layout().alloc_chunk_pages;
  int data_writes = 0;
  h.stack->block().set_completion_hook([&](const BlockRequest& req) {
    if (req.is_write && !req.is_journal) {
      ++data_writes;
    }
  });
  bool fsynced = false;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, (chunk - 1) * kPageSize,
                                     kPageSize);
    co_await h.stack->kernel().Write(*p, ino, 5 * chunk * kPageSize,
                                     kPageSize);
    co_await h.stack->kernel().Fsync(*p, ino);
    fsynced = true;
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  ASSERT_TRUE(fsynced);
  EXPECT_EQ(data_writes, 1);
  EXPECT_EQ(h.stack->cache().dirty_pages(), 0u);
  EXPECT_EQ(h.stack->cache().writeback_pages(), 0u);
}

// The core ext4 phenomenon (Figure 5): an fsync of a tiny file is delayed by
// another process's large buffered data once both join the same transaction.
TEST(Ext4, FsyncEntangledWithOtherProcessesData) {
  Nanos small_alone;
  {
    Simulator sim;
    Harness h;
    Process* a = h.stack->NewProcess("A");
    Nanos latency = 0;
    auto body = [&]() -> Task<void> {
      int64_t ino = co_await h.stack->kernel().Creat(*a, "/a");
      co_await h.stack->kernel().Write(*a, ino, 0, kPageSize);
      Nanos start = Simulator::current().Now();
      co_await h.stack->kernel().Fsync(*a, ino);
      latency = Simulator::current().Now() - start;
    };
    sim.Spawn(body());
    sim.Run(Sec(5));
    small_alone = latency;
    ASSERT_GT(small_alone, 0);
  }
  Nanos small_entangled;
  {
    Simulator sim;
    Harness h;
    Process* a = h.stack->NewProcess("A");
    Process* b = h.stack->NewProcess("B");
    Nanos latency = 0;
    auto big_writer = [&]() -> Task<void> {
      int64_t ino = co_await h.stack->kernel().Creat(*b, "/b");
      // 16 MB buffered, then fsync: B's flush + commit is in flight when A
      // fsyncs.
      co_await h.stack->kernel().Write(*b, ino, 0, 4096 * kPageSize);
      co_await h.stack->kernel().Fsync(*b, ino);
    };
    auto small_writer = [&]() -> Task<void> {
      int64_t ino = co_await h.stack->kernel().Creat(*a, "/a");
      co_await Delay(Msec(5));  // let B's fsync start first
      co_await h.stack->kernel().Write(*a, ino, 0, kPageSize);
      Nanos start = Simulator::current().Now();
      co_await h.stack->kernel().Fsync(*a, ino);
      latency = Simulator::current().Now() - start;
    };
    sim.Spawn(big_writer());
    sim.Spawn(small_writer());
    sim.Run(Sec(10));
    small_entangled = latency;
    ASSERT_GT(small_entangled, 0);
  }
  // A's fsync is at least an order of magnitude slower when entangled.
  EXPECT_GT(small_entangled, 5 * small_alone);
}

TEST(Ext4, JournalCommitTagsCarryAllCauses) {
  Simulator sim;
  Harness h;
  Process* a = h.stack->NewProcess("A");
  Process* b = h.stack->NewProcess("B");
  std::vector<CauseSet> journal_causes;
  h.stack->block().set_completion_hook([&](const BlockRequest& req) {
    if (req.is_journal) {
      journal_causes.push_back(req.causes);
    }
  });
  auto writer = [&](Process* p, const char* path) -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, path);
    co_await h.stack->kernel().Write(*p, ino, 0, kPageSize);
    co_await h.stack->kernel().Fsync(*p, ino);
  };
  auto body = [&]() -> Task<void> {
    // Both writers dirty metadata in the same transaction window.
    int64_t ia = co_await h.stack->kernel().Creat(*a, "/a");
    int64_t ib = co_await h.stack->kernel().Creat(*b, "/b");
    co_await h.stack->kernel().Write(*a, ia, 0, kPageSize);
    co_await h.stack->kernel().Write(*b, ib, 0, kPageSize);
    co_await h.stack->kernel().Fsync(*a, ia);
  };
  (void)writer;
  sim.Spawn(body());
  sim.Run(Sec(5));
  ASSERT_FALSE(journal_causes.empty());
  EXPECT_TRUE(journal_causes[0].Contains(a->pid()));
  EXPECT_TRUE(journal_causes[0].Contains(b->pid()));
}

TEST(Ext4, PeriodicCommitHappensWithoutFsync) {
  Simulator sim;
  Harness h;
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    (void)ino;
  };
  sim.Spawn(body());
  sim.Run(Sec(12));
  EXPECT_GE(h.stack->ext4()->journal().commits_done(), 1u);
}

TEST(Xfs, FsyncDoesNotDragOtherFilesData) {
  Simulator sim;
  Harness h(StackConfig::FsKind::kXfs);
  Process* a = h.stack->NewProcess("A");
  Process* b = h.stack->NewProcess("B");
  Nanos latency = 0;
  auto big_writer = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*b, "/b");
    co_await h.stack->kernel().Write(*b, ino, 0, 4096 * kPageSize);  // 16 MB
    // No fsync: B's data stays buffered.
  };
  auto small_writer = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*a, "/a");
    co_await Delay(Msec(5));
    co_await h.stack->kernel().Write(*a, ino, 0, kPageSize);
    Nanos start = Simulator::current().Now();
    co_await h.stack->kernel().Fsync(*a, ino);
    latency = Simulator::current().Now() - start;
  };
  sim.Spawn(big_writer());
  sim.Spawn(small_writer());
  sim.Run(Sec(10));
  // XFS log force writes only metadata; B's 16 MB stays out of A's path.
  EXPECT_GT(latency, 0);
  EXPECT_LT(latency, Msec(200));
}

TEST(Xfs, PartialIntegrationAttributesLogToLogTask) {
  Simulator sim;
  Harness h(StackConfig::FsKind::kXfs);
  Process* b = h.stack->NewProcess("B");
  std::vector<CauseSet> log_causes;
  h.stack->block().set_completion_hook([&](const BlockRequest& req) {
    if (req.is_journal) {
      log_causes.push_back(req.causes);
    }
  });
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*b, "/f");
    co_await h.stack->kernel().Fsync(*b, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  ASSERT_FALSE(log_causes.empty());
  // Partial integration: the log write is NOT attributed to B.
  EXPECT_FALSE(log_causes[0].Contains(b->pid()));
}

TEST(Xfs, FullIntegrationAttributesLogToRealCauses) {
  Simulator sim;
  StackConfig config;
  config.fs = StackConfig::FsKind::kXfs;
  config.xfs_full_integration = true;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu, nullptr, std::make_unique<NoopElevator>());
  stack.Start();
  Process* b = stack.NewProcess("B");
  std::vector<CauseSet> log_causes;
  stack.block().set_completion_hook([&](const BlockRequest& req) {
    if (req.is_journal) {
      log_causes.push_back(req.causes);
    }
  });
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*b, "/f");
    co_await stack.kernel().Fsync(*b, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  ASSERT_FALSE(log_causes.empty());
  EXPECT_TRUE(log_causes[0].Contains(b->pid()));
}

TEST(Allocator, FilesWrittenAloneAreSequential) {
  Inode inode;
  ExtentAllocator alloc(1000, 2048);
  uint64_t prev = alloc.AllocatePage(inode, 0);
  for (uint64_t i = 1; i < 100; ++i) {
    uint64_t s = alloc.AllocatePage(inode, i);
    EXPECT_EQ(s, prev + kPageSize / kSectorSize);
    prev = s;
  }
}

TEST(Allocator, InterleavedFilesGetDistinctChunks) {
  Inode f1;
  Inode f2;
  ExtentAllocator alloc(0, 16);
  uint64_t a0 = alloc.AllocatePage(f1, 0);
  uint64_t b0 = alloc.AllocatePage(f2, 0);
  EXPECT_NE(a0, b0);
  // Second chunk of f1 lands after f2's chunk: interleaving fragments.
  uint64_t a_chunk2 = alloc.AllocatePage(f1, 16);
  EXPECT_GT(a_chunk2, b0);
}

// Runs a maximal run map must hold for `ref`: pages and sectors both
// consecutive within a run.
size_t MaximalRuns(const std::unordered_map<uint64_t, uint64_t>& ref) {
  std::map<uint64_t, uint64_t> sorted(ref.begin(), ref.end());
  size_t runs = 0;
  uint64_t prev_page = 0;
  uint64_t prev_sector = 0;
  for (const auto& [page, sector] : sorted) {
    if (runs == 0 || page != prev_page + 1 ||
        sector != prev_sector + ExtentMap::kSectorsPerPage) {
      ++runs;
    }
    prev_page = page;
    prev_sector = sector;
  }
  return runs;
}

// Random single-page sets, chunk-sized range maps, copy-on-write remaps
// that split runs, and remaps that make neighbours contiguous, checked
// page by page against a per-page hash map.
TEST(ExtentMap, MatchesPerPageReference) {
  constexpr uint64_t kPages = 600;
  constexpr uint64_t kSpp = ExtentMap::kSectorsPerPage;
  ExtentMap map;
  std::unordered_map<uint64_t, uint64_t> ref;
  Rng rng(11);
  uint64_t head = 1 << 20;  // log head: fresh sectors
  size_t max_runs = 0;
  for (int step = 0; step < 4000; ++step) {
    uint64_t page = rng.Below(kPages);
    switch (rng.Below(5)) {
      case 0: {  // range map (allocation chunk or preallocation)
        uint64_t n = 1 + rng.Below(40);
        map.Map(page, n, head);
        for (uint64_t i = 0; i < n; ++i) {
          ref[page + i] = head + i * kSpp;
        }
        head += n * kSpp;
        break;
      }
      case 1:  // copy-on-write remap of one page
        map.Set(page, head);
        ref[page] = head;
        head += kSpp;
        break;
      case 2:  // remap next to the left neighbour's sector: merges
        if (page > 0 && ref.count(page - 1) != 0) {
          map.Set(page, ref[page - 1] + kSpp);
          ref[page] = ref[page - 1] + kSpp;
        }
        break;
      case 3:  // remap onto the sector it already has: no change
        if (ref.count(page) != 0) {
          map.Set(page, ref[page]);
        }
        break;
      case 4:  // remap just before the right neighbour's sector: merges
        if (ref.count(page + 1) != 0 && ref[page + 1] >= kSpp) {
          map.Set(page, ref[page + 1] - kSpp);
          ref[page] = ref[page + 1] - kSpp;
        }
        break;
    }
    for (uint64_t p = 0; p < kPages + 40; ++p) {
      auto want = ref.find(p);
      std::optional<uint64_t> got = map.Lookup(p);
      ASSERT_EQ(got.has_value(), want != ref.end()) << "page " << p;
      if (got) {
        ASSERT_EQ(*got, want->second) << "page " << p << " step " << step;
      }
    }
    // A run lookup answers for every page up to the end of its maximal
    // run, and a cursor over ascending pages agrees with Lookup.
    for (uint64_t p = 0; p < kPages + 40; ++p) {
      std::optional<ExtentMap::RunFrom> run = map.LookupRun(p);
      std::optional<uint64_t> got = map.Lookup(p);
      ASSERT_EQ(run.has_value(), got.has_value()) << "page " << p;
      if (!run) {
        continue;
      }
      ASSERT_EQ(run->sector, *got) << "page " << p;
      ASSERT_GT(run->pages, 0u);
      for (uint64_t i = 1; i < run->pages; ++i) {
        ASSERT_EQ(map.Lookup(p + i), *got + i * kSpp) << p << "+" << i;
      }
      ASSERT_NE(map.Lookup(p + run->pages), *got + run->pages * kSpp)
          << "run from " << p << " is not maximal";
    }
    // The cursor also stays right while a copy-on-write flush remaps each
    // page it passes (on a copy of the map).
    ExtentMap remapped = map;
    ExtentMap::Cursor cursor(remapped);
    Rng walk(static_cast<uint64_t>(step));
    uint64_t fresh = head;
    for (uint64_t p = walk.Below(4); p < kPages + 40; p += 1 + walk.Below(4)) {
      ASSERT_EQ(cursor.Sector(p), map.Lookup(p)) << "page " << p;
      if (walk.Below(2) == 0) {
        remapped.Set(p, fresh);
        fresh += kSpp;
      }
    }
    ASSERT_EQ(map.runs(), MaximalRuns(ref)) << "step " << step;
    max_runs = std::max(max_runs, map.runs());
  }
  EXPECT_GT(max_runs, 20u);  // remaps really fragmented the map
}

// Exposes the protected inode table of the file system under test.
class InspectableExt4 : public Ext4Sim {
 public:
  using Ext4Sim::Ext4Sim;
  using FsBase::GetInode;
};

// A write below the dirty limit does not enter the dirty throttle, and its
// coroutine frames come from the simulator's free lists, so once the cache
// and the lists are warm it allocates nothing.
TEST(FsBase, WarmWriteBelowDirtyLimitAllocatesNothing) {
  Simulator sim;
  HddModel device;
  NoopElevator elevator;
  BlockLayer block(&device, &elevator);
  PageCache::Config config;
  config.writeback_daemon = false;
  PageCache cache(config);
  Process wb(9001, "pdflush");
  Process jbd(9002, "jbd2");
  Process ckpt(9003, "jbd2-checkpoint");
  Ext4Sim fs(&cache, &block, &wb, &jbd, &ckpt, FsBase::Layout());
  Process writer(1, "w");
  int64_t ino = fs.CreatePreallocated("/f", 1 << 20);
  constexpr int kWrites = 100;
  constexpr uint64_t kLen = 64 << 10;
  uint64_t write_allocs = 0;
  bool over_limit = true;
  auto body = [&]() -> Task<void> {
    co_await fs.Write(writer, ino, 0, kLen);  // warm-up
    const uint64_t before = counters().allocs;
    for (int i = 0; i < kWrites; ++i) {
      co_await fs.Write(writer, ino, (i % 8) * kLen, kLen);
    }
    write_allocs = counters().allocs - before;
    over_limit = cache.over_dirty_limit();
  };
  sim.Spawn(body());
  sim.Run();
  EXPECT_FALSE(over_limit);
  EXPECT_EQ(write_allocs, 0u);
}

TEST(ExtentMap, PreallocatedFileMapsWholeChunks) {
  HddModel device;
  NoopElevator elevator;
  BlockLayer block(&device, &elevator);
  PageCache cache;
  Process wb(9001, "pdflush");
  Process jbd(9002, "jbd2");
  Process ckpt(9003, "jbd2-checkpoint");
  FsBase::Layout layout;
  InspectableExt4 fs(&cache, &block, &wb, &jbd, &ckpt, layout);
  constexpr uint64_t kBytes = 8ULL << 30;
  constexpr uint64_t kPages = kBytes / kPageSize;
  uint64_t before = counters().allocs;
  int64_t ino = fs.CreatePreallocated("/big", kBytes);
  // One range per allocation chunk (plus the chunk table), not one entry
  // per page.
  EXPECT_LT(counters().allocs - before, 3 * kPages / layout.alloc_chunk_pages);
  const ExtentMap& extents = fs.GetInode(ino)->extents;
  EXPECT_LE(extents.runs(), (kPages + layout.alloc_chunk_pages - 1) /
                                layout.alloc_chunk_pages);
  // A file allocated alone is sequential from the data area.
  for (uint64_t page : {uint64_t{0}, uint64_t{1}, uint64_t{2047}, uint64_t{2048},
                        kPages - 1}) {
    EXPECT_EQ(extents.Lookup(page),
              layout.data_start + page * ExtentMap::kSectorsPerPage);
  }
  EXPECT_FALSE(extents.Lookup(kPages).has_value());
}

}  // namespace
}  // namespace splitio
