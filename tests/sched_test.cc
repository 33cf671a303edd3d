// Scheduler behaviour tests: AFQ fairness, Split-Deadline latency
// protection, Split-Token / SCS-Token isolation and accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "src/block/block_deadline.h"
#include "src/block/cfq.h"
#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/metrics/counters.h"
#include "src/sched/composed.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace splitio {
namespace {

TEST(StrideState, ChargesInverselyToWeight) {
  StrideState stride;
  StrideClient a;
  StrideClient b;
  stride.SetWeight(a, 8);
  stride.SetWeight(b, 1);
  stride.Charge(a, 800);
  stride.Charge(b, 100);
  EXPECT_DOUBLE_EQ(a.pass, 100.0);
  EXPECT_DOUBLE_EQ(b.pass, 100.0);
  stride.SetPassAtLeast(a, 500.0);
  EXPECT_DOUBLE_EQ(a.pass, 500.0);
  stride.SetPassAtLeast(a, 100.0);  // never lowers
  EXPECT_DOUBLE_EQ(a.pass, 500.0);
}

// Client records for the index tests: the index of a record is its id.
struct StrideClients {
  explicit StrideClients(StrideState& stride, int n) : records(n) {
    stride.Reserve(records.size());
  }
  int32_t Id(const StrideClient& c) const {
    return static_cast<int32_t>(&c - records.data());
  }
  std::vector<StrideClient> records;
};

// The reference the heap index replaced: walk every active client.
double BruteForceMinPass(const StrideClients& clients,
                         const std::set<int32_t>& active) {
  if (active.empty()) {
    return 0;
  }
  double min_pass = std::numeric_limits<double>::max();
  for (int32_t c : active) {
    min_pass = std::min(min_pass, clients.records[c].pass);
  }
  return min_pass;
}

// Randomized property test of the active-set index: interleave charges,
// refunds, pass floors, activations and (single and bulk) deactivations
// over ~1000 clients, and compare MinActivePass() with the brute-force walk
// after every step. Weights are powers of two and costs multiples of 8, so
// passes are exact and ties between clients are common.
TEST(StrideState, ActiveMinMatchesBruteForceWalk) {
  constexpr int kClients = 1000;
  StrideState stride;
  StrideClients clients(stride, kClients);
  std::set<int32_t> active;
  Rng rng(20151004);
  for (StrideClient& c : clients.records) {
    stride.SetWeight(c, static_cast<double>(1 << rng.Below(4)));
  }
  auto client = [&]() { return static_cast<int32_t>(rng.Below(kClients)); };
  size_t peak_active = 0;
  for (int step = 0; step < 20000; ++step) {
    int32_t c = client();
    StrideClient& record = clients.records[c];
    uint64_t op = rng.Below(10);
    if (step % 2000 == 1999) {
      // A Housekeep-style sweep drops a pseudo-random subset.
      uint64_t modulus = rng.Below(4) + 2;
      uint64_t offset = rng.Below(modulus);
      auto drop = [=](int32_t x) {
        return (static_cast<uint64_t>(x) * 2654435761u) % modulus == offset;
      };
      stride.DeactivateIf(
          [&](const StrideClient& r) { return drop(clients.Id(r)); });
      std::erase_if(active, drop);
    } else if (op < 3) {  // charge (BufferDirty, dispatch, completion)
      stride.Charge(record, 8.0 * static_cast<double>(rng.Below(64)));
    } else if (op < 5) {  // refund (BufferFree, revision downwards)
      stride.Charge(record, -8.0 * static_cast<double>(rng.Below(64)));
    } else if (op < 6) {  // floor at the minimum or at another client's pass
      stride.SetPassAtLeast(record, rng.Below(2) == 0
                                        ? stride.MinActivePass()
                                        : clients.records[client()].pass);
    } else if (op < 9) {
      EXPECT_EQ(stride.Activate(record), active.insert(c).second);
    } else {  // one client leaves
      stride.DeactivateIf([&](const StrideClient& r) { return &r == &record; });
      active.erase(c);
    }
    peak_active = std::max(peak_active, active.size());
    ASSERT_EQ(stride.MinActivePass(), BruteForceMinPass(clients, active))
        << "step " << step;
  }
  EXPECT_GT(peak_active, 500u);
}

// Once the heap is reserved for every known client, the index's
// operations never allocate.
TEST(StrideState, IndexIsAllocationFreeOnceClientsAreKnown) {
  constexpr int kClients = 1000;
  StrideState stride;
  StrideClients clients(stride, kClients);
  for (int c = 0; c < kClients; ++c) {
    stride.SetWeight(clients.records[c], 1 + c % 8);
  }
  uint64_t before = counters().allocs;
  double sink = 0;
  for (int round = 0; round < 20; ++round) {
    for (int c = 0; c < kClients; ++c) {
      StrideClient& record = clients.records[c];
      stride.Activate(record);
      stride.Charge(record, (c * 7 + round) % 13 - 4.0);
      stride.SetPassAtLeast(record, stride.MinActivePass());
      sink += stride.MinActivePass();
    }
    stride.DeactivateIf([&](const StrideClient& r) {
      return (clients.Id(r) + round) % 3 != 0;
    });
    sink += stride.MinActivePass();
  }
  stride.DeactivateIf([](const StrideClient&) { return true; });
  EXPECT_EQ(counters().allocs, before);
  EXPECT_EQ(stride.MinActivePass(), 0.0);
  EXPECT_NE(sink, 0.0);
}

TEST(TokenBucket, RefillAndDebt) {
  TokenBucket bucket(1000.0, 500.0);  // 1000 B/s, 500 B burst
  EXPECT_TRUE(bucket.CanAdmit());
  bucket.Charge(2000);  // deep debt
  EXPECT_FALSE(bucket.CanAdmit());
  bucket.Refill(0);
  bucket.Refill(Sec(1));  // +1000
  EXPECT_FALSE(bucket.CanAdmit());
  bucket.Refill(Sec(2));  // +1000, capped at 500
  EXPECT_TRUE(bucket.CanAdmit());
  EXPECT_DOUBLE_EQ(bucket.balance(), 500.0);
}

// ---------- AFQ ----------

// Figure 11(b): asynchronous sequential writers with priorities 0..7.
// CFQ ignores priorities (everything arrives via writeback); AFQ respects
// them via split tags + syscall-level stride admission.
double AsyncWriteDeviation(bool use_afq) {
  Simulator sim;
  StackConfig config;
  config.cache.total_ram = 2ULL << 30;  // modest write buffer
  CpuModel cpu(8);
  std::unique_ptr<StorageStack> stack;
  if (use_afq) {
    stack = std::make_unique<StorageStack>(
        config, &cpu, std::make_unique<ComposedScheduler>(AfqSpec()), nullptr);
  } else {
    stack = std::make_unique<StorageStack>(config, &cpu, nullptr,
                                           std::make_unique<CfqElevator>());
  }
  stack->Start();
  std::vector<WorkloadStats> stats(8);
  std::vector<Process*> procs;
  auto writer = [&](int prio) -> Task<void> {
    Process* p = procs[static_cast<size_t>(prio)];
    int64_t ino = co_await stack->kernel().Creat(*p, "/w" + std::to_string(prio));
    co_await SequentialWriter(stack->kernel(), *p, ino, 256 * 1024, Sec(20),
                              &stats[static_cast<size_t>(prio)]);
  };
  for (int prio = 0; prio < 8; ++prio) {
    Process* p = stack->NewProcess("writer");
    p->set_priority(prio);
    procs.push_back(p);
  }
  for (int prio = 0; prio < 8; ++prio) {
    sim.Spawn(writer(prio));
  }
  sim.Run(Sec(20));
  double total = 0;
  for (const auto& s : stats) {
    total += static_cast<double>(s.bytes);
  }
  // Deviation from the weighted-fair goal, averaged across priorities.
  double deviation = 0;
  for (int prio = 0; prio < 8; ++prio) {
    double goal = static_cast<double>(8 - prio) / 36.0;
    double got = static_cast<double>(stats[static_cast<size_t>(prio)].bytes) / total;
    deviation += std::abs(got - goal) / goal;
  }
  return deviation / 8;
}

TEST(Afq, RespectsPrioritiesForBufferedWritesWhereCfqFails) {
  double cfq_dev = AsyncWriteDeviation(false);
  double afq_dev = AsyncWriteDeviation(true);
  // CFQ: everything collapses to the writeback queue -> large deviation.
  EXPECT_GT(cfq_dev, 0.5);
  // AFQ: close to the goal split.
  EXPECT_LT(afq_dev, 0.35);
  EXPECT_GT(cfq_dev, 2 * afq_dev);
}

// ---------- Split-Token ----------

struct TokenHarness {
  explicit TokenHarness(double rate_bytes_per_sec, bool scs = false,
                        StackConfig cfg = StackConfig()) {
    cpu = std::make_unique<CpuModel>(8);
    auto s = std::make_unique<ComposedScheduler>(scs ? ScsTokenSpec()
                                                     : SplitTokenSpec());
    s->SetAccountLimit(1, rate_bytes_per_sec);
    sched = s.get();
    stack = std::make_unique<StorageStack>(cfg, cpu.get(), std::move(s),
                                           nullptr);
    stack->Start();
  }
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<StorageStack> stack;
  ComposedScheduler* sched = nullptr;
};

TEST(SplitToken, ThrottledSequentialWriterConvergesToRate) {
  Simulator sim;
  TokenHarness h(10.0 * 1024 * 1024);  // 10 MB/s
  Process* b = h.stack->NewProcess("B");
  b->set_account(1);
  WorkloadStats stats;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*b, "/b");
    co_await SequentialWriter(h.stack->kernel(), *b, ino, 1 << 20, Sec(30),
                              &stats);
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  double mbps = stats.MBps(0, Sec(30));
  EXPECT_GT(mbps, 6.0);
  EXPECT_LT(mbps, 14.0);
}

TEST(SplitToken, CacheHitsAreFree) {
  Simulator sim;
  TokenHarness h(1.0 * 1024 * 1024);  // tight 1 MB/s limit
  Process* b = h.stack->NewProcess("B");
  b->set_account(1);
  WorkloadStats stats;
  auto body = [&]() -> Task<void> {
    // Pre-warmed working set: steady-state rereads are pure cache hits,
    // which the split framework never taxes (they cause no block I/O).
    int64_t ino = h.stack->fs().CreatePreallocated("/m", 64 << 20);
    for (uint64_t idx = 0; idx < (64ULL << 20) / kPageSize; ++idx) {
      h.stack->cache().InsertClean(ino, idx);
    }
    co_await MemReader(h.stack->kernel(), *b, ino, 64 << 20, 1 << 20, Sec(10),
                       &stats);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  double mbps = stats.MBps(0, Sec(10));
  EXPECT_GT(mbps, 100.0);  // far above the 1 MB/s cap
}

// The unmodified SCS framework (no file-system modification) charges every
// read system call, cache hit or not.
TEST(ScsToken, UnmodifiedVariantChargesCacheHits) {
  Simulator sim;
  StackConfig cfg;
  CpuModel cpu(8);
  ScsTokenConfig scs_cfg;
  scs_cfg.cache_hit_exemption = false;
  auto sched = std::make_unique<ComposedScheduler>(ScsTokenSpec(scs_cfg));
  sched->SetAccountLimit(1, 1.0 * 1024 * 1024);
  StorageStack stack(cfg, &cpu, std::move(sched), nullptr);
  stack.Start();
  Process* b = stack.NewProcess("B");
  b->set_account(1);
  WorkloadStats stats;
  auto body = [&]() -> Task<void> {
    int64_t ino = stack.fs().CreatePreallocated("/m", 16 << 20);
    for (uint64_t idx = 0; idx < (16ULL << 20) / kPageSize; ++idx) {
      stack.cache().InsertClean(ino, idx);
    }
    co_await MemReader(stack.kernel(), *b, ino, 16 << 20, 1 << 20, Sec(10),
                       &stats);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  double mbps = stats.MBps(0, Sec(10));
  EXPECT_LT(mbps, 5.0);
}

// With the paper's file-system modification [19], SCS exempts cache hits
// from token charges but still runs its logic (CPU) on every call.
TEST(ScsToken, ModifiedVariantExemptsCacheHits) {
  Simulator sim;
  TokenHarness h(1.0 * 1024 * 1024, /*scs=*/true);
  Process* b = h.stack->NewProcess("B");
  b->set_account(1);
  WorkloadStats stats;
  auto body = [&]() -> Task<void> {
    int64_t ino = h.stack->fs().CreatePreallocated("/m", 16 << 20);
    for (uint64_t idx = 0; idx < (16ULL << 20) / kPageSize; ++idx) {
      h.stack->cache().InsertClean(ino, idx);
    }
    co_await MemReader(h.stack->kernel(), *b, ino, 16 << 20, 1 << 20, Sec(10),
                       &stats);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  double mbps = stats.MBps(0, Sec(10));
  EXPECT_GT(mbps, 100.0);  // hits are free of tokens (though CPU-taxed)
}

TEST(SplitToken, OverwritesOfBufferedDataAreFree) {
  Simulator sim;
  TokenHarness h(1.0 * 1024 * 1024);
  Process* b = h.stack->NewProcess("B");
  b->set_account(1);
  WorkloadStats stats;
  auto body = [&]() -> Task<void> {
    // 2 MB region: the first pass is charged (new write work), everything
    // after is overwrites of buffered data — free under split scheduling.
    int64_t ino = co_await h.stack->kernel().Creat(*b, "/w");
    co_await MemWriter(h.stack->kernel(), *b, ino, 2 << 20, 1 << 20, Sec(10),
                       &stats);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  double mbps = stats.MBps(0, Sec(10));
  EXPECT_GT(mbps, 50.0);  // in-memory overwrites are not new disk work
}

TEST(ScsToken, ThrottlesBufferedOverwrites) {
  Simulator sim;
  TokenHarness h(1.0 * 1024 * 1024, /*scs=*/true);
  Process* b = h.stack->NewProcess("B");
  b->set_account(1);
  WorkloadStats stats;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*b, "/w");
    co_await MemWriter(h.stack->kernel(), *b, ino, 16 << 20, 1 << 20, Sec(10),
                       &stats);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  double mbps = stats.MBps(0, Sec(10));
  EXPECT_LT(mbps, 5.0);
}

TEST(SplitToken, RandomWritesChargedMoreThanSequential) {
  auto run = [](bool random) {
    Simulator sim;
    TokenHarness h(10.0 * 1024 * 1024);
    Process* b = h.stack->NewProcess("B");
    b->set_account(1);
    WorkloadStats stats;
    auto body = [&]() -> Task<void> {
      int64_t ino = co_await h.stack->kernel().Creat(*b, "/b");
      if (random) {
        co_await RandomWriter(h.stack->kernel(), *b, ino, 1ULL << 30, 4096, 7,
                              Sec(30), &stats);
      } else {
        co_await SequentialWriter(h.stack->kernel(), *b, ino, 1 << 20, Sec(30),
                                  &stats);
      }
    };
    sim.Spawn(body());
    sim.Run(Sec(30));
    return stats.MBps(0, Sec(30));
  };
  double seq = run(false);
  double rnd = run(true);
  // Random writes cost far more tokens per byte: achieved bytes collapse.
  EXPECT_LT(rnd * 5, seq);
}

TEST(SplitToken, BufferFreeRefundsTokens) {
  Simulator sim;
  StackConfig cfg;
  cfg.cache.writeback_daemon = false;  // keep data buffered
  TokenHarness h(1.0 * 1024 * 1024, false, cfg);
  Process* b = h.stack->NewProcess("B");
  b->set_account(1);
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*b, "/tmp");
    co_await h.stack->kernel().Write(*b, *&ino, 0, 4 << 20);
    double after_write = h.sched->account_balance(1);
    co_await h.stack->kernel().Unlink(*b, ino);
    double after_unlink = h.sched->account_balance(1);
    EXPECT_GT(after_unlink, after_write + 3.0 * (1 << 20));
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
}

// ---------- Split-Deadline ----------

// Figure 5 / 12: A's small fsyncs against B's big fsyncs.
Nanos SmallFsyncP99(bool use_split) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  std::unique_ptr<StorageStack> stack;
  if (use_split) {
    SplitDeadlineConfig sd;
    sd.own_writeback = true;
    stack = std::make_unique<StorageStack>(
        config, &cpu,
        std::make_unique<ComposedScheduler>(SplitDeadlineSpec(sd)), nullptr);
  } else {
    BlockDeadlineConfig bd;
    bd.read_expiry = Msec(20);
    bd.write_expiry = Msec(20);
    stack = std::make_unique<StorageStack>(
        config, &cpu, nullptr, std::make_unique<BlockDeadlineElevator>(bd));
  }
  stack->Start();
  Process* a = stack->NewProcess("A");
  a->set_fsync_deadline(Msec(25));
  Process* b = stack->NewProcess("B");
  b->set_fsync_deadline(Msec(800));
  WorkloadStats a_stats;
  WorkloadStats b_stats;
  auto small = [&]() -> Task<void> {
    int64_t ino = co_await stack->kernel().Creat(*a, "/log");
    co_await AppendFsyncLoop(stack->kernel(), *a, ino, 4096, Sec(20),
                             &a_stats);
  };
  auto big = [&]() -> Task<void> {
    int64_t ino = co_await stack->kernel().Creat(*b, "/db");
    co_await stack->kernel().Write(*b, ino, 0, 64 << 20);  // create region
    co_await BigWriteFsyncLoop(stack->kernel(), *b, ino, 64 << 20, 4 << 20,
                               4096, Msec(100), 11, Sec(20), &b_stats);
  };
  sim.Spawn(small());
  sim.Spawn(big());
  sim.Run(Sec(20));
  if (a_stats.latency.count() == 0) {
    return kNanosMax;
  }
  return a_stats.latency.Percentile(99);
}

TEST(SplitDeadline, ProtectsSmallFsyncsFromBigOnes) {
  Nanos block_p99 = SmallFsyncP99(false);
  Nanos split_p99 = SmallFsyncP99(true);
  // Split-Deadline keeps A's tail near its 25 ms deadline; Block-Deadline
  // inherits B's multi-hundred-ms flushes.
  EXPECT_LT(split_p99, Msec(80));
  EXPECT_GT(block_p99, split_p99 * 2);
}

TEST(SplitDeadline, OwnWritebackEventuallyCleansDirtyData) {
  Simulator sim;
  StackConfig config;
  SplitDeadlineConfig sd;
  sd.own_writeback = true;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu,
                     std::make_unique<ComposedScheduler>(SplitDeadlineSpec(sd)),
                     nullptr);
  stack.Start();
  Process* p = stack.NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 8 << 20);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  EXPECT_EQ(stack.cache().dirty_pages(), 0u);
}

// Scheduler-owned writeback turns the kernel daemon off by itself: with the
// cache's daemon flag left at its default, a 32 MB write into a 64 MB cache
// (five times its background limit) reaches the device only through the
// own-writeback ticks.
TEST(SplitDeadline, OwnWritebackTurnsTheDaemonOff) {
  Simulator sim;
  StackConfig config;
  config.cache.total_ram = 64 << 20;
  SplitDeadlineConfig sd;
  sd.own_writeback = true;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu,
                     std::make_unique<ComposedScheduler>(SplitDeadlineSpec(sd)),
                     nullptr);
  stack.Start();
  Process* p = stack.NewProcess("app");
  std::vector<Nanos> data_submits;
  stack.block().add_completion_hook([&](const BlockRequest& req) {
    if (req.is_write && !req.is_journal && !req.is_flush) {
      data_submits.push_back(req.enqueue_time);
    }
  });
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 32 << 20);
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  ASSERT_FALSE(data_submits.empty());
  int off_tick = 0;
  for (Nanos t : data_submits) {
    if (t % sd.own_writeback_period != 0) {
      ++off_tick;
    }
  }
  EXPECT_EQ(off_tick, 0) << "of " << data_submits.size()
                         << " data writes; the first at " << data_submits[0];
  EXPECT_EQ(stack.cache().dirty_pages(), 0u);
}

// A 4 KB read with a 5 ms deadline arrives while a cold 32 MB scan keeps
// the HDD busy, just before the own-writeback tick at 25 ms. The read is
// queued in the block layer at the tick, so the tick must see deadline
// pressure and leave the dirty file alone until the read completes.
struct HiddenReadRun {
  Nanos read_submitted = -1;
  Nanos read_completed = -1;
  int writes = 0;
  int writes_while_read_pending = 0;
};

HiddenReadRun RunReadAcrossOwnWritebackTick(const BlockMqConfig& mq) {
  Simulator sim;
  StackConfig config;
  config.mq = mq;
  SplitDeadlineConfig sd;
  sd.own_writeback = true;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu,
                     std::make_unique<ComposedScheduler>(SplitDeadlineSpec(sd)),
                     nullptr);
  stack.Start();
  Process* writer = stack.NewProcess("writer");
  Process* scanner = stack.NewProcess("scanner");
  Process* reader = stack.NewProcess("reader");
  reader->set_read_deadline(Msec(5));
  int64_t big = stack.fs().CreatePreallocated("/big", 32 << 20);
  int64_t small = stack.fs().CreatePreallocated("/small", 1 << 20);

  HiddenReadRun run;
  std::vector<Nanos> write_submits;
  stack.block().add_completion_hook([&](const BlockRequest& req) {
    if (req.is_write) {
      write_submits.push_back(req.enqueue_time);
    } else if (req.submitter == reader) {
      run.read_submitted = req.enqueue_time;
      run.read_completed = sim.Now();
    }
  });
  auto dirty = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*writer, "/dirty");
    co_await stack.kernel().Write(*writer, ino, 0, 64 * kPageSize);
  };
  auto scan = [&]() -> Task<void> {
    co_await stack.kernel().Read(*scanner, big, 0, 32 << 20);
  };
  auto probe = [&]() -> Task<void> {
    co_await Delay(Msec(22));
    co_await stack.kernel().Read(*reader, small, 0, 4096);
  };
  sim.Spawn(dirty());
  sim.Spawn(scan());
  sim.Spawn(probe());
  sim.Run(Sec(2));
  run.writes = static_cast<int>(write_submits.size());
  for (Nanos t : write_submits) {
    if (t >= run.read_submitted && t < run.read_completed) {
      ++run.writes_while_read_pending;
    }
  }
  return run;
}

void ExpectWritebackWaitsForRead(const BlockMqConfig& mq) {
  HiddenReadRun run = RunReadAcrossOwnWritebackTick(mq);
  // The scenario holds: the read was pending across the 25 ms tick, and
  // writeback did run once it was done.
  EXPECT_LT(run.read_submitted, Msec(25));
  EXPECT_GT(run.read_completed, Msec(25));
  EXPECT_GT(run.writes, 0);
  EXPECT_EQ(run.writes_while_read_pending, 0);
}

TEST(SplitDeadline, OwnWritebackSeesReadQueuedBehindBusyDevice) {
  ExpectWritebackWaitsForRead(BlockMqConfig());
}

TEST(SplitDeadline, OwnWritebackSeesReadQueuedBehindBusyDeviceMq11) {
  BlockMqConfig mq;
  mq.enabled = true;
  mq.nr_hw_queues = 1;
  mq.queue_depth = 1;
  ExpectWritebackWaitsForRead(mq);
}

// ---------- Split no-op ----------

TEST(SplitNoop, HooksFireWithoutChangingBehaviour) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitNoopSpec());
  ComposedScheduler* noop = sched.get();
  StorageStack stack(config, &cpu, std::move(sched), nullptr);
  stack.Start();
  Process* p = stack.NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 16 * kPageSize);
    co_await stack.kernel().Fsync(*p, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  EXPECT_EQ(noop->dirty_events(), 16u);
  EXPECT_EQ(stack.cache().dirty_pages(), 0u);
}

}  // namespace
}  // namespace splitio
