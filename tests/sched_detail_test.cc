// Detailed scheduler-internal tests: CFQ slice switching, Split-Deadline
// block-level behaviour and cost estimation, XFS log batching, AFQ read
// sharing, and token-bucket account handling.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/block/block_layer.h"
#include "src/block/cfq.h"
#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/sched/composed.h"
#include "src/sched/engines.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"
#include "tests/dispatch_stream.h"

namespace splitio {
namespace {

BlockRequestPtr MakeReq(uint64_t sector, uint32_t bytes, bool write,
                        Process* submitter, bool sync = false) {
  auto req = std::make_shared<BlockRequest>();
  req->sector = sector;
  req->bytes = bytes;
  req->is_write = write;
  req->is_sync = sync;
  req->submitter = submitter;
  if (submitter != nullptr) {
    req->causes = CauseSet(submitter->pid());
  }
  return req;
}

// CFQ switches queues when the slice is exhausted, even if the current
// queue still has requests.
TEST(CfqDetail, SliceExhaustionSwitchesQueues) {
  Simulator sim;
  CfqConfig config;
  config.base_slice = Msec(1);  // tiny slices: switch nearly every request
  HddModel hdd;
  CfqElevator cfq(config);
  BlockLayer block(&hdd, &cfq);
  block.Start();
  Process p1(1, "a");
  Process p2(2, "b");
  std::vector<int32_t> service_order;
  block.add_completion_hook([&](const BlockRequest& req) {
    if (req.submitter != nullptr) {
      service_order.push_back(req.submitter->pid());
    }
  });
  auto body = [&]() -> Task<void> {
    std::vector<BlockRequestPtr> reqs;
    // Interleaved far-apart requests so each costs a visible seek.
    for (int i = 0; i < 4; ++i) {
      reqs.push_back(MakeReq(static_cast<uint64_t>(i) * 4096, kPageSize,
                             false, &p1));
      reqs.push_back(MakeReq(100000000 + static_cast<uint64_t>(i) * 4096,
                             kPageSize, false, &p2));
    }
    for (auto& r : reqs) {
      block.Submit(r);
    }
    for (auto& r : reqs) {
      co_await r->done.Wait();
    }
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  ASSERT_EQ(service_order.size(), 8u);
  // With 1 ms slices and ~10 ms seeks, CFQ must alternate between the two
  // processes rather than serving one to completion.
  int switches = 0;
  for (size_t i = 1; i < service_order.size(); ++i) {
    if (service_order[i] != service_order[i - 1]) {
      ++switches;
    }
  }
  EXPECT_GE(switches, 3);
}

// Split-Deadline serves expired reads before anything else.
TEST(SplitDeadlineDetail, ExpiredReadJumpsWrites) {
  Simulator sim;
  SplitDeadlineConfig config;
  config.default_read_deadline = Msec(10);
  ComposedScheduler sched(SplitDeadlineSpec(config));
  Process reader(1, "r");
  Process writer(2, "w");
  // A pile of background writes and one stale read.
  for (int i = 0; i < 8; ++i) {
    auto w = MakeReq(static_cast<uint64_t>(i) * 1024, kPageSize, true,
                     &writer);
    w->enqueue_time = 0;
    sched.Add(std::move(w));
  }
  auto r = MakeReq(9000000, kPageSize, false, &reader);
  r->enqueue_time = 0;
  sched.Add(r);
  // Advance the clock past the read deadline.
  auto wait = []() -> Task<void> { co_await Delay(Msec(20)); };
  sim.Spawn(wait());
  sim.Run();
  BlockRequestPtr first = sched.Next();
  ASSERT_NE(first, nullptr);
  EXPECT_FALSE(first->is_write);
}

// Reads dispatched in sorted order must leave the read FIFO too: once Next()
// has drained the scheduler and the caller dropped what it got back, the
// scheduler may keep no request alive.
TEST(SplitDeadlineDetail, DrainedReadsAreReleased) {
  Simulator sim;
  ComposedScheduler sched(SplitDeadlineSpec());
  Process reader(1, "r");
  Process writer(2, "w");
  std::vector<std::weak_ptr<BlockRequest>> held;
  for (int i = 0; i < 64; ++i) {
    // Scrambled sectors: sorted order differs from arrival order.
    auto r = MakeReq(static_cast<uint64_t>((i * 37) % 64) * 1024, kPageSize,
                     /*write=*/i % 4 == 0, i % 4 == 0 ? &writer : &reader);
    r->enqueue_time = 0;
    held.push_back(r);
    sched.Add(std::move(r));
  }
  int dispatched = 0;
  while (sched.Next() != nullptr) {
    ++dispatched;
  }
  EXPECT_EQ(dispatched, 64);
  for (const std::weak_ptr<BlockRequest>& w : held) {
    EXPECT_TRUE(w.expired());
  }
}

// The dispatch order of a random stream (tests/dispatch_stream.h), recorded
// before Split-Deadline moved onto Block-Deadline's queues: expired reads,
// then sync and journal writes, then sorted batches with the writes_starved
// read preference. Background writes carry no deadline.
TEST(SplitDeadlineDetail, DispatchOrderMatchesRecordedHash) {
  struct Recorded {
    uint64_t seed;
    uint64_t dispatched;
    uint64_t hash;
  };
  constexpr Recorded kRecorded[] = {
      {1, 11969, 0x9af69880b635f85eULL},
      {2, 12125, 0x15edcf71d7d36b68ULL},
      {3, 12081, 0x3b0339e368fbd93fULL},
  };
  for (const Recorded& r : kRecorded) {
    SplitDeadlineConfig config;
    config.default_read_deadline = Msec(20);
    config.fifo_batch = 4;
    ComposedScheduler sched(SplitDeadlineSpec(config));
    DispatchDigest d = RunDispatchStream(sched, r.seed);
    EXPECT_EQ(d.dispatched, r.dispatched) << "seed " << r.seed;
    EXPECT_EQ(d.hash, r.hash)
        << "seed " << r.seed << ": 0x" << std::hex << d.hash;
  }
}

// Fsync-critical (sync/journal) writes precede background writes.
TEST(SplitDeadlineDetail, UrgentWritesPrecedeBackground) {
  Simulator sim;
  ComposedScheduler sched(SplitDeadlineSpec());
  Process wb(9001, "writeback");
  Process app(1, "app");
  for (int i = 0; i < 4; ++i) {
    auto bg = MakeReq(static_cast<uint64_t>(i) * 1024, kPageSize, true, &wb);
    bg->enqueue_time = 0;
    sched.Add(std::move(bg));
  }
  auto urgent = MakeReq(7777, kPageSize, true, &app);
  urgent->is_sync = true;
  urgent->enqueue_time = 0;
  sched.Add(urgent);
  auto journal = MakeReq(8888, kPageSize, true, &app);
  journal->is_journal = true;
  journal->enqueue_time = 0;
  sched.Add(journal);
  BlockRequestPtr first = sched.Next();
  BlockRequestPtr second = sched.Next();
  EXPECT_TRUE(first->is_sync || first->is_journal);
  EXPECT_TRUE(second->is_sync || second->is_journal);
}

// The fsync cost estimator distinguishes contiguous from scattered dirty
// data.
TEST(SplitDeadlineDetail, FsyncCostTracksFragmentation) {
  Simulator sim;
  StackConfig config;
  config.cache.writeback_daemon = false;
  CpuModel cpu(8);
  auto sched_owner = std::make_unique<ComposedScheduler>(SplitDeadlineSpec());
  StorageStack stack(config, &cpu, std::move(sched_owner), nullptr);
  stack.Start();
  Process* p = stack.NewProcess("app");
  Nanos contiguous_latency = 0;
  Nanos scattered_latency = 0;
  auto body = [&]() -> Task<void> {
    // 64 contiguous dirty pages.
    int64_t a = co_await stack.kernel().Creat(*p, "/a");
    co_await stack.kernel().Write(*p, a, 0, 64 * kPageSize);
    Nanos t0 = Simulator::current().Now();
    co_await stack.kernel().Fsync(*p, a);
    contiguous_latency = Simulator::current().Now() - t0;
    // 64 scattered dirty pages (one per megabyte).
    int64_t b = co_await stack.kernel().Creat(*p, "/b");
    co_await stack.kernel().Write(*p, b, 0, 64 << 20);  // allocate layout
    co_await stack.kernel().Fsync(*p, b);
    for (uint64_t i = 0; i < 64; ++i) {
      co_await stack.kernel().Write(*p, b, i << 20, kPageSize);
    }
    t0 = Simulator::current().Now();
    co_await stack.kernel().Fsync(*p, b);
    scattered_latency = Simulator::current().Now() - t0;
  };
  sim.Spawn(body());
  sim.Run(Sec(60));
  // Scattered flushes cost real seeks; contiguous ones stream.
  EXPECT_GT(scattered_latency, 2 * contiguous_latency);
}

// XFS log forces batch pending items: two files fsync'd back-to-back share
// log writes rather than doubling them.
TEST(XfsDetail, LogForceBatchesPendingItems) {
  Simulator sim;
  StackConfig config;
  config.fs = StackConfig::FsKind::kXfs;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu, nullptr, std::make_unique<NoopElevator>());
  stack.Start();
  Process* p = stack.NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t a = co_await stack.kernel().Creat(*p, "/a");
    int64_t b = co_await stack.kernel().Creat(*p, "/b");
    int64_t c = co_await stack.kernel().Creat(*p, "/c");
    (void)b;
    (void)c;
    // One fsync forces all three creates' log items.
    co_await stack.kernel().Fsync(*p, a);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  EXPECT_EQ(stack.xfs()->log_forces(), 1u);
  EXPECT_GT(stack.xfs()->log_bytes_written(), 0u);
}

// AFQ gives two equal-priority readers roughly equal block-level service.
TEST(AfqDetail, EqualPrioritiesShareReads) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu,
                     std::make_unique<ComposedScheduler>(AfqSpec()), nullptr);
  stack.Start();
  Process* p1 = stack.NewProcess("r1");
  Process* p2 = stack.NewProcess("r2");
  int64_t f1 = stack.fs().CreatePreallocated("/f1", 4ULL << 30);
  int64_t f2 = stack.fs().CreatePreallocated("/f2", 4ULL << 30);
  WorkloadStats s1;
  WorkloadStats s2;
  auto r1 = [&]() -> Task<void> {
    co_await SequentialReader(stack.kernel(), *p1, f1, 4ULL << 30, 256 * 1024,
                              Sec(10), &s1);
  };
  auto r2 = [&]() -> Task<void> {
    co_await SequentialReader(stack.kernel(), *p2, f2, 4ULL << 30, 256 * 1024,
                              Sec(10), &s2);
  };
  sim.Spawn(r1());
  sim.Spawn(r2());
  sim.Run(Sec(10));
  double ratio = static_cast<double>(s1.bytes) / static_cast<double>(s2.bytes);
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

// Unknown accounts are never throttled; two accounts are independent.
TEST(SplitTokenDetail, AccountsAreIndependent) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  sched->SetAccountLimit(1, 2.0 * 1024 * 1024);
  sched->SetAccountLimit(2, 32.0 * 1024 * 1024);
  StorageStack stack(config, &cpu, std::move(sched), nullptr);
  stack.Start();
  Process* slow = stack.NewProcess("slow");
  slow->set_account(1);
  Process* fast = stack.NewProcess("fast");
  fast->set_account(2);
  Process* free_rider = stack.NewProcess("unlimited");  // account -1
  WorkloadStats slow_stats;
  WorkloadStats fast_stats;
  WorkloadStats free_stats;
  auto writer = [&](Process* p, const char* path,
                    WorkloadStats* stats) -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, path);
    co_await SequentialWriter(stack.kernel(), *p, ino, 1 << 20, Sec(20),
                              stats);
  };
  sim.Spawn(writer(slow, "/s", &slow_stats));
  sim.Spawn(writer(fast, "/f", &fast_stats));
  sim.Spawn(writer(free_rider, "/u", &free_stats));
  sim.Run(Sec(20));
  double slow_mbps = slow_stats.MBps(0, Sec(20));
  double fast_mbps = fast_stats.MBps(0, Sec(20));
  EXPECT_GT(slow_mbps, 1.0);
  EXPECT_LT(slow_mbps, 4.0);
  EXPECT_GT(fast_mbps, 5 * slow_mbps);
  EXPECT_GT(free_stats.MBps(0, Sec(20)), fast_mbps);  // unthrottled wins
}

// The token engine remembers the pid -> account binding it recorded last,
// so the pages of one write skip the map update. A process that moves to
// another account and back must still be charged to its current account:
// every binding update, at every hook, moves that memo.
TEST(SplitTokenDetail, ChargesTheCurrentAccountOfAProcessThatMoves) {
  Simulator sim;
  TokenEngine engine(SplitTokenConfig{});
  engine.SetAccountLimit(1, 1e6);
  engine.SetAccountLimit(2, 1e6);
  Process p(7, "p");
  Page first;
  first.ino = 1;
  first.causes = CauseSet(7);
  Page next = first;
  next.index = 1;
  p.set_account(1);
  engine.BufferDirty(p, first, /*was_dirty=*/false);
  p.set_account(2);
  BlockRequestPtr req = MakeReq(0, kPageSize, /*write=*/true, &p);
  EXPECT_TRUE(engine.AdmitOrHold(req));  // binds pid 7 to account 2
  p.set_account(1);
  engine.BufferDirty(p, next, /*was_dirty=*/false);
  EXPECT_EQ(engine.accounts().LeafCharged(1), 2.0 * kPageSize);
  EXPECT_EQ(engine.accounts().LeafCharged(2), 0.0);
}

}  // namespace
}  // namespace splitio
