// Tests for the copy-on-write file system model (btrfs-like): out-of-place
// writes, checkpoint batching, garbage collection, and GC proxy tagging.
#include <gtest/gtest.h>

#include <memory>

#include "src/block/noop.h"
#include "src/cache/page_cache.h"
#include "src/fs/cowfs.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/syscall/kernel.h"

namespace splitio {
namespace {

// CowFsSim is not wired into StorageStack's fs enum (it is an extension),
// so assemble the pieces directly.
struct CowHarness {
  explicit CowHarness(const CowConfig& cow = CowConfig()) {
    device = std::make_unique<HddModel>();
    elevator = std::make_unique<NoopElevator>();
    block = std::make_unique<BlockLayer>(device.get(), elevator.get());
    cache = std::make_unique<PageCache>();
    wb = std::make_unique<Process>(9001, "writeback");
    ckpt = std::make_unique<Process>(9002, "cow-checkpoint");
    gc = std::make_unique<Process>(9003, "cow-gc");
    fs = std::make_unique<CowFsSim>(cache.get(), block.get(), wb.get(),
                                    ckpt.get(), gc.get(), FsBase::Layout(),
                                    cow);
    cpu = std::make_unique<CpuModel>(8);
    kernel = std::make_unique<OsKernel>(fs.get(), cache.get(), cpu.get(),
                                        nullptr, OsKernel::Config());
    block->Start();
    fs->Mount();
    fs->StartWriteback();
  }
  std::unique_ptr<HddModel> device;
  std::unique_ptr<NoopElevator> elevator;
  std::unique_ptr<BlockLayer> block;
  std::unique_ptr<PageCache> cache;
  std::unique_ptr<Process> wb, ckpt, gc;
  std::unique_ptr<CowFsSim> fs;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<OsKernel> kernel;
};

TEST(CowFs, WriteFsyncReadCycle) {
  Simulator sim;
  CowHarness h;
  Process app(1, "app");
  bool done = false;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.kernel->Creat(app, "/f");
    co_await h.kernel->Write(app, ino, 0, 64 * kPageSize);
    co_await h.kernel->Fsync(app, ino);
    EXPECT_EQ(h.cache->dirty_pages_of(ino), 0u);
    uint64_t n = co_await h.kernel->Read(app, ino, 0, 64 * kPageSize);
    EXPECT_EQ(n, 64u * kPageSize);
    done = true;
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  EXPECT_TRUE(done);
  EXPECT_GE(h.fs->checkpoints(), 1u);
}

TEST(CowFs, RandomOverwritesBecomeSequentialOnDisk) {
  Simulator sim;
  CowHarness h;
  Process app(1, "app");
  std::vector<uint64_t> write_sectors;
  h.block->set_completion_hook([&](const BlockRequest& req) {
    if (req.is_write && !req.is_journal) {
      write_sectors.push_back(req.sector);
    }
  });
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.kernel->Creat(app, "/f");
    co_await h.kernel->Write(app, ino, 0, 256 * kPageSize);
    co_await h.kernel->Fsync(app, ino);
    // Random-order overwrites of scattered pages...
    for (uint64_t idx : {200ULL, 3ULL, 77ULL, 150ULL, 9ULL, 42ULL}) {
      co_await h.kernel->Write(app, ino, idx * kPageSize, kPageSize);
    }
    write_sectors.clear();
    co_await h.kernel->Fsync(app, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  // ...reach disk as one (or few) sequential log-head writes.
  ASSERT_FALSE(write_sectors.empty());
  EXPECT_LE(write_sectors.size(), 2u);
}

// Dirty pages 5 and 7 get consecutive log-head sectors, so one request
// writes both; its completion must end the writeback of exactly those
// pages, not of 5 and 6.
TEST(CowFs, NonAdjacentPagesInOneRequestAllLeaveWriteback) {
  Simulator sim;
  CowHarness h;
  Process app(1, "app");
  int data_writes = 0;
  h.block->set_completion_hook([&](const BlockRequest& req) {
    if (req.is_write && !req.is_journal) {
      ++data_writes;
    }
  });
  bool done = false;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.kernel->Creat(app, "/f");
    co_await h.kernel->Write(app, ino, 5 * kPageSize, kPageSize);
    co_await h.kernel->Write(app, ino, 7 * kPageSize, kPageSize);
    co_await h.kernel->Fsync(app, ino);
    done = true;
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  ASSERT_TRUE(done);
  EXPECT_EQ(data_writes, 1);
  EXPECT_EQ(h.cache->dirty_pages(), 0u);
  EXPECT_EQ(h.cache->writeback_pages(), 0u);
}

TEST(CowFs, OverwriteLeavesOldLocationDeadAndRemaps) {
  Simulator sim;
  CowHarness h;
  Process app(1, "app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.kernel->Creat(app, "/f");
    co_await h.kernel->Write(app, ino, 0, kPageSize);
    co_await h.kernel->Fsync(app, ino);
    uint64_t segs_before = h.fs->live_segments();
    co_await h.kernel->Write(app, ino, 0, kPageSize);  // overwrite page 0
    co_await h.kernel->Fsync(app, ino);
    // Still at most the same segment count; the data moved, it didn't grow.
    EXPECT_LE(h.fs->live_segments(), segs_before + 1);
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
}

TEST(CowFs, CheckpointBatchesAllPendingMetadata) {
  Simulator sim;
  CowHarness h;
  Process a(1, "A");
  Process b(2, "B");
  std::vector<CauseSet> checkpoint_causes;
  h.block->set_completion_hook([&](const BlockRequest& req) {
    if (req.is_journal) {
      checkpoint_causes.push_back(req.causes);
    }
  });
  auto body = [&]() -> Task<void> {
    int64_t ia = co_await h.kernel->Creat(a, "/a");
    int64_t ib = co_await h.kernel->Creat(b, "/b");
    co_await h.kernel->Write(a, ia, 0, kPageSize);
    co_await h.kernel->Write(b, ib, 0, kPageSize);
    // A's fsync checkpoints; the tree write carries B's pending updates
    // too, and both causes.
    co_await h.kernel->Fsync(a, ia);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  ASSERT_FALSE(checkpoint_causes.empty());
  EXPECT_TRUE(checkpoint_causes[0].Contains(a.pid()));
  EXPECT_TRUE(checkpoint_causes[0].Contains(b.pid()));
}

TEST(CowFs, GarbageCollectionReclaimsDeadSegments) {
  Simulator sim;
  CowConfig cow;
  cow.total_segments = 16;     // tiny log so GC triggers quickly
  cow.segment_pages = 64;      // 256 KB segments
  cow.gc_threshold = 0.5;
  CowHarness h(cow);
  Process app(1, "app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.kernel->Creat(app, "/f");
    // A sliding overwrite window: most of each round's data dies later,
    // but each segment keeps a few live pages — so the collector must
    // migrate, not just reclaim.
    for (uint64_t round = 0; round < 40; ++round) {
      co_await h.kernel->Write(app, ino, round * 4 * kPageSize,
                               32 * kPageSize);
      co_await h.kernel->Fsync(app, ino);
    }
  };
  sim.Spawn(body());
  sim.Run(Sec(60));
  EXPECT_GT(h.fs->gc_runs(), 0u);
  // Despite 40 x 32 pages of writes in a 16x64-page log, space was
  // reclaimed: utilization stayed below 100%.
  EXPECT_LT(h.fs->log_utilization(), 1.0);
}

TEST(CowFs, GcProxyTaggingAttributesMigrationToOwners) {
  auto run = [](bool tag_gc) {
    Simulator sim;
    CowConfig cow;
    cow.total_segments = 16;
    cow.segment_pages = 64;
    cow.gc_threshold = 0.5;
    cow.tag_gc_proxy = tag_gc;
    CowHarness h(cow);
    Process app(1, "app");
    bool gc_attributed_to_app = false;
    bool gc_io_seen = false;
    h.block->set_completion_hook([&](const BlockRequest& req) {
      if (req.submitter != nullptr && req.submitter->pid() == 9003) {
        gc_io_seen = true;
        if (req.causes.Contains(1)) {
          gc_attributed_to_app = true;
        }
      }
    });
    auto body = [&]() -> Task<void> {
      int64_t ino = co_await h.kernel->Creat(app, "/f");
      for (uint64_t round = 0; round < 40; ++round) {
        co_await h.kernel->Write(app, ino, round * 4 * kPageSize,
                                 32 * kPageSize);
        co_await h.kernel->Fsync(app, ino);
      }
    };
    sim.Spawn(body());
    sim.Run(Sec(60));
    return std::make_pair(gc_io_seen, gc_attributed_to_app);
  };
  auto [seen_tagged, attributed_tagged] = run(true);
  EXPECT_TRUE(seen_tagged);
  EXPECT_TRUE(attributed_tagged);  // full integration: GC billed to the app
  auto [seen_untagged, attributed_untagged] = run(false);
  EXPECT_TRUE(seen_untagged);
  EXPECT_FALSE(attributed_untagged);  // partial: GC I/O escapes accounting
}

}  // namespace
}  // namespace splitio
