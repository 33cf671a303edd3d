// Tests for the application models: WalDb, PgSim, VmGuest, ShardedDfs.
#include <gtest/gtest.h>

#include <memory>

#include "src/apps/dfs_sharded.h"
#include "src/apps/pgsim.h"
#include "src/apps/vm_guest.h"
#include "src/apps/waldb.h"
#include "src/block/block_deadline.h"
#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

struct Harness {
  Harness() {
    StackConfig config;
    cpu = std::make_unique<CpuModel>(8);
    stack = std::make_unique<StorageStack>(
        config, cpu.get(), nullptr, std::make_unique<NoopElevator>());
    stack->Start();
  }
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<StorageStack> stack;
};

TEST(WalDbApp, TransactionsCommitAndRecordLatency) {
  Simulator sim;
  Harness h;
  Process* worker = h.stack->NewProcess("worker");
  Process* ckpt = h.stack->NewProcess("ckpt");
  WalDb::Config config;
  config.checkpoint_threshold_rows = 100;
  WalDb db(h.stack.get(), worker, ckpt, config);
  auto body = [&]() -> Task<void> {
    co_await db.Open();
    Simulator::current().Spawn(db.RunUpdates(Sec(10)));
    Simulator::current().Spawn(db.RunCheckpointer(Sec(10)));
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  EXPECT_GT(db.txns(), 50u);
  EXPECT_EQ(db.txn_latency().count(), db.txns());
  EXPECT_GE(db.checkpoints(), 1u);
  // Every transaction fsync'd the WAL: data reached the device.
  EXPECT_GT(h.stack->device().total_bytes_written(), db.txns() * 4096);
}

TEST(WalDbApp, CheckpointsTrackThreshold) {
  Simulator sim;
  Harness h;
  Process* worker = h.stack->NewProcess("worker");
  Process* ckpt = h.stack->NewProcess("ckpt");
  WalDb::Config config;
  config.checkpoint_threshold_rows = 1000000;  // effectively never
  WalDb db(h.stack.get(), worker, ckpt, config);
  auto body = [&]() -> Task<void> {
    co_await db.Open();
    Simulator::current().Spawn(db.RunUpdates(Sec(5)));
    Simulator::current().Spawn(db.RunCheckpointer(Sec(5)));
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  EXPECT_EQ(db.checkpoints(), 0u);
}

TEST(PgSimApp, WorkersAndCheckpointerRun) {
  Simulator sim;
  Harness h;
  PgSim::Config config;
  config.workers = 2;
  config.checkpoint_interval = Sec(4);
  PgSim pg(h.stack.get(), config);
  auto body = [&]() -> Task<void> {
    co_await pg.Open();
    pg.Start(Sec(10));
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  EXPECT_GT(pg.txns(), 20u);
  EXPECT_GE(pg.checkpoints(), 2u);
  EXPECT_EQ(pg.txn_latency().count(), pg.txns());
}

TEST(VmGuestApp, GuestCacheAbsorbsRereads) {
  Simulator sim;
  Harness h;
  Process* vm = h.stack->NewProcess("vm");
  VmGuest::Config config;
  VmGuest guest(h.stack.get(), vm, config);
  guest.CreateImage("/img");
  guest.Start();
  auto body = [&]() -> Task<void> {
    co_await guest.Read(0, 1 << 20);  // miss: host I/O
    uint64_t host_reads_after_first = guest.host_reads();
    co_await guest.Read(0, 1 << 20);  // hit: guest cache
    EXPECT_EQ(guest.host_reads(), host_reads_after_first);
    EXPECT_GT(guest.guest_cache_hits(), 0u);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
}

TEST(VmGuestApp, GuestWritesFlushThroughHost) {
  Simulator sim;
  Harness h;
  Process* vm = h.stack->NewProcess("vm");
  VmGuest::Config config;
  VmGuest guest(h.stack.get(), vm, config);
  guest.CreateImage("/img");
  guest.Start();
  auto body = [&]() -> Task<void> {
    co_await guest.Write(0, 4 << 20);
    co_await guest.Fsync();
    // Data traversed the host stack and reached the device.
    EXPECT_GE(h.stack->device().total_bytes_written(), 4u << 20);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
}

TEST(VmGuestApp, GuestDirtyRatioBoundsBuffering) {
  Simulator sim;
  Harness h;
  Process* vm = h.stack->NewProcess("vm");
  VmGuest::Config config;
  config.guest_ram = 64 << 20;  // guest may buffer at most ~12.8 MB
  VmGuest guest(h.stack.get(), vm, config);
  guest.CreateImage("/img");
  guest.Start();
  auto body = [&]() -> Task<void> {
    co_await guest.Write(0, 64 << 20);  // far beyond the guest buffer
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  // The overflow was pushed through the host during the write.
  EXPECT_GT(h.stack->device().total_bytes_written() +
                h.stack->cache().dirty_bytes() +
                h.stack->cache().writeback_pages() * kPageSize,
            32u << 20);
}

TEST(ShardedDfsApp, ReplicatesBlocksAcrossWorkers) {
  ShardedDfs::Config config;
  config.workers = 4;
  config.replication = 3;
  config.block_bytes = 8 << 20;
  Counters before = counters();
  WorkloadStats stats;
  {
    ShardedDfs cluster(config);
    cluster.Start();
    cluster.AddClient(/*client_id=*/0, /*account=*/-1, Sec(20), &stats);
    cluster.Run(Sec(20));
  }
  EXPECT_GT(stats.bytes, 8u << 20);  // at least one block written
  // Replication: the workers' page caches take 3x the application bytes,
  // plus at most the chunk whose pipeline the horizon cut short.
  const uint64_t worker_bytes =
      counters().Delta(before).pages_dirtied * kPageSize;
  EXPECT_GE(worker_bytes, 3 * stats.bytes);
  EXPECT_LE(worker_bytes, 3 * (stats.bytes + config.network_chunk));
}

TEST(ShardedDfsApp, ThrottledAccountIsSlower) {
  ShardedDfs::Config config;
  config.workers = 4;
  config.block_bytes = 8 << 20;
  ShardedDfs cluster(config);
  cluster.Start();
  cluster.SetAccountLimit(1, 2.0 * 1024 * 1024);
  WorkloadStats fast;
  WorkloadStats slow;
  cluster.AddClient(0, -1, Sec(30), &fast);
  cluster.AddClient(1, 1, Sec(30), &slow);
  cluster.Run(Sec(30));
  EXPECT_GT(fast.bytes, 2 * slow.bytes);
}

// A config ShardedDfs cannot run aborts with the offending field in every
// build type, before it can hang PlaceBlock or divide by zero.
TEST(ShardedDfsAppDeathTest, FewerWorkersThanReplicasAborts) {
  ShardedDfs::Config config;
  config.workers = 2;
  config.replication = 3;
  EXPECT_DEATH({ ShardedDfs cluster(config); },
               "workers = 2 is below replication = 3");
}

TEST(ShardedDfsAppDeathTest, ZeroWorkersPerShardAborts) {
  ShardedDfs::Config config;
  config.workers_per_shard = 0;
  EXPECT_DEATH({ ShardedDfs cluster(config); },
               "workers_per_shard = 0 is below 1");
}

}  // namespace
}  // namespace splitio
