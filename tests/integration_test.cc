// Cross-module integration and property tests: full stacks exercised
// end-to-end, invariants checked over parameter sweeps.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/core/sched_factory.h"
#include "src/core/storage_stack.h"
#include "src/sched/composed.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace splitio {
namespace {

struct FullStack {
  FullStack(SchedKind sched, StackConfig::FsKind fs,
            StackConfig::DeviceKind device) {
    StackConfig config;
    config.fs = fs;
    config.device = device;
    cpu = std::make_unique<CpuModel>(8);
    SchedInstance inst = MakeSched(sched);
    stack = std::make_unique<StorageStack>(config, cpu.get(),
                                           std::move(inst.split),
                                           std::move(inst.legacy));
    stack->Start();
  }
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<StorageStack> stack;
};

// Every (scheduler, fs, device) combination must complete a basic
// write-fsync-read cycle with correct durability accounting: after fsync,
// no dirty pages remain and the device received at least the data.
using StackParams =
    std::tuple<SchedKind, StackConfig::FsKind, StackConfig::DeviceKind>;
class StackMatrix : public ::testing::TestWithParam<StackParams> {};

TEST_P(StackMatrix, WriteFsyncReadCycleCompletes) {
  auto [sched, fs, device] = GetParam();
  Simulator sim;
  FullStack h(sched, fs, device);
  Process* p = h.stack->NewProcess("app");
  bool completed = false;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
    co_await h.stack->kernel().Write(*p, ino, 0, 256 * kPageSize);
    co_await h.stack->kernel().Fsync(*p, ino);
    EXPECT_EQ(h.stack->cache().dirty_pages_of(ino), 0u);
    uint64_t n = co_await h.stack->kernel().Read(*p, ino, 0, 256 * kPageSize);
    EXPECT_EQ(n, 256u * kPageSize);
    completed = true;
  };
  sim.Spawn(body());
  sim.Run(Sec(60));
  EXPECT_TRUE(completed);
  EXPECT_GE(h.stack->device().total_bytes_written(), 256u * kPageSize);
}

INSTANTIATE_TEST_SUITE_P(
    AllStacks, StackMatrix,
    ::testing::Combine(
        ::testing::ValuesIn(kAllSchedKinds),
        ::testing::Values(StackConfig::FsKind::kExt4,
                          StackConfig::FsKind::kXfs),
        ::testing::Values(StackConfig::DeviceKind::kHdd,
                          StackConfig::DeviceKind::kSsd)));

// Determinism: the same seed and configuration must produce bit-identical
// results across runs.
class DeterminismSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismSweep, IdenticalAcrossRuns) {
  auto run = [&]() {
    Simulator sim;
    FullStack h(SchedKind::kSplitToken, StackConfig::FsKind::kExt4,
                StackConfig::DeviceKind::kHdd);
    Process* p = h.stack->NewProcess("app");
    WorkloadStats stats;
    auto body = [&]() -> Task<void> {
      int64_t ino = co_await h.stack->kernel().Creat(*p, "/f");
      co_await RandomWriter(h.stack->kernel(), *p, ino, 64 << 20, 4096,
                            GetParam(), Sec(5), &stats);
      co_await h.stack->kernel().Fsync(*p, ino);
    };
    sim.Spawn(body());
    sim.Run(Sec(10));
    return std::make_tuple(stats.bytes, stats.ops,
                           h.stack->device().total_bytes_written(),
                           h.stack->device().busy_time());
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeterminismSweep,
                         ::testing::Values(1, 7, 42, 1234));

// Conservation: bytes dirtied = bytes written back + bytes still dirty +
// bytes freed, across a mixed workload.
TEST(Conservation, DirtyPagesAreNeverLost) {
  Simulator sim;
  FullStack h(SchedKind::kSplitNoop, StackConfig::FsKind::kExt4,
              StackConfig::DeviceKind::kHdd);
  Process* p = h.stack->NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t a = co_await h.stack->kernel().Creat(*p, "/a");
    int64_t b = co_await h.stack->kernel().Creat(*p, "/b");
    co_await h.stack->kernel().Write(*p, a, 0, 64 * kPageSize);
    co_await h.stack->kernel().Write(*p, b, 0, 32 * kPageSize);
    co_await h.stack->kernel().Fsync(*p, a);
    co_await h.stack->kernel().Unlink(*p, b);  // b's dirty pages freed
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  // a's 64 pages must be durable; b's 32 pages must have produced no data
  // writes (journal/checkpoint writes are metadata).
  EXPECT_EQ(h.stack->cache().dirty_pages(), 0u);
  EXPECT_GE(h.stack->device().total_bytes_written(), 64u * kPageSize);
}

// The split framework never reorders journal writes relative to each other
// (commit records are ordering-critical).
TEST(JournalOrdering, CommitsReachDeviceInOrder) {
  Simulator sim;
  FullStack h(SchedKind::kSplitDeadline, StackConfig::FsKind::kExt4,
              StackConfig::DeviceKind::kHdd);
  Process* p = h.stack->NewProcess("app");
  std::vector<uint64_t> journal_sectors;
  h.stack->block().set_completion_hook([&](const BlockRequest& req) {
    if (req.is_journal) {
      journal_sectors.push_back(req.sector);
    }
  });
  auto body = [&]() -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      int64_t ino = co_await h.stack->kernel().Creat(
          *p, "/f" + std::to_string(i));
      co_await h.stack->kernel().Write(*p, ino, 0, kPageSize);
      co_await h.stack->kernel().Fsync(*p, ino);
    }
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  ASSERT_GE(journal_sectors.size(), 2u);
  for (size_t i = 1; i < journal_sectors.size(); ++i) {
    EXPECT_GT(journal_sectors[i], journal_sectors[i - 1])
        << "journal writes must stay sequential/ordered";
  }
}

// Split-Token rate sweep: achieved throughput of a throttled sequential
// writer tracks the configured rate across two orders of magnitude.
class RateSweep : public ::testing::TestWithParam<double> {};

TEST_P(RateSweep, ThroughputTracksConfiguredRate) {
  double rate_mbps = GetParam();
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  sched->SetAccountLimit(1, rate_mbps * 1024 * 1024);
  StorageStack stack(config, &cpu, std::move(sched), nullptr);
  stack.Start();
  Process* p = stack.NewProcess("b");
  p->set_account(1);
  WorkloadStats stats;
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await SequentialWriter(stack.kernel(), *p, ino, 1 << 20, Sec(30),
                              &stats);
  };
  sim.Spawn(body());
  sim.Run(Sec(30));
  double achieved = stats.MBps(0, Sec(30));
  EXPECT_GT(achieved, 0.5 * rate_mbps);
  EXPECT_LT(achieved, 1.8 * rate_mbps);
}

INSTANTIATE_TEST_SUITE_P(Rates, RateSweep,
                         ::testing::Values(1.0, 4.0, 16.0, 64.0));

}  // namespace
}  // namespace splitio
