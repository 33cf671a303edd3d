// Tests for block-completion records taken through TraceSink and spans:
// the completion log of a stack and the per-cause split of device time and
// bytes (SplitByCause).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "src/block/noop.h"
#include "src/core/storage_stack.h"
#include "src/obs/span.h"
#include "src/obs/trace_sink.h"
#include "src/sched/composed.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

TEST(SpanBuilder, RecordsCompletionsWithCauses) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  StorageStack stack(config, &cpu, nullptr, std::make_unique<NoopElevator>());
  obs::TraceSink sink;
  sink.Attach();
  stack.Start();
  Process* p = stack.NewProcess("app");
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 8 * kPageSize);
    co_await stack.kernel().Fsync(*p, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  std::vector<obs::RequestSpan> spans = obs::BuildSpans(sink.events());
  ASSERT_FALSE(spans.empty());
  bool saw_data_write = false;
  bool saw_journal = false;
  for (const obs::RequestSpan& s : spans) {
    EXPECT_GE(s.completed, s.added);
    EXPECT_GT(s.service, 0);
    if ((s.flags & obs::kFlagJournal) != 0) {
      saw_journal = true;
    } else if ((s.flags & obs::kFlagWrite) != 0) {
      saw_data_write = true;
      ASSERT_EQ(s.causes.size(), 1u);
      EXPECT_EQ(s.causes[0], p->pid());
    }
  }
  EXPECT_TRUE(saw_data_write);
  EXPECT_TRUE(saw_journal);
}

obs::RequestSpan SharedSpan(uint32_t bytes, Nanos service,
                            std::vector<int32_t> causes) {
  obs::RequestSpan span;
  span.bytes = bytes;
  span.flags = obs::kFlagWrite;
  span.service = service;
  span.causes = std::move(causes);
  return span;
}

TEST(SplitByCause, SplitsSharedRequests) {
  auto split = obs::SplitByCause(
      {SharedSpan(2 * kPageSize, Msec(4), {1, 2})});  // shared by two causes
  ASSERT_EQ(split.size(), 2u);
  EXPECT_EQ(split[1].bytes, kPageSize);
  EXPECT_EQ(split[1].bytes, split[2].bytes);
  EXPECT_EQ(split[1].device_time, Msec(2));
  EXPECT_EQ(split[1].device_time, split[2].device_time);
  EXPECT_EQ(split[1].requests, 1u);
}

// Regression: integer division across causes used to drop up to n-1 ns and
// bytes per request, so per-cause totals no longer summed to the per-request
// totals.
TEST(SplitByCause, ConservesTimeAndBytes) {
  // 4096 bytes and 1,000,001 ns: neither divisible by 3 causes.
  const obs::RequestSpan span = SharedSpan(kPageSize, 1000001, {1, 2, 3});
  auto split = obs::SplitByCause({span});
  ASSERT_EQ(split.size(), 3u);
  uint64_t total_bytes = 0;
  Nanos total_time = 0;
  uint64_t min_bytes = span.bytes;
  uint64_t max_bytes = 0;
  for (const auto& [pid, share] : split) {
    total_bytes += share.bytes;
    total_time += share.device_time;
    min_bytes = std::min(min_bytes, share.bytes);
    max_bytes = std::max(max_bytes, share.bytes);
  }
  EXPECT_EQ(total_bytes, span.bytes);
  EXPECT_EQ(total_time, span.service);
  // Still an even split: shares differ by at most one unit.
  EXPECT_LE(max_bytes - min_bytes, 1u);
}

TEST(TraceSink, DetachStopsRecordingAndKeepsEvents) {
  obs::TraceSink sink;
  sink.Detach();  // detaching while unattached is a no-op
  EXPECT_FALSE(sink.attached());
  Simulator sim;
  HddModel hdd;
  NoopElevator noop;
  BlockLayer block(&hdd, &noop);
  sink.Attach();
  EXPECT_TRUE(sink.attached());
  block.Start();
  auto one_write = [&](uint64_t sector) -> Task<void> {
    auto req = std::make_shared<BlockRequest>();
    req->sector = sector;
    req->bytes = kPageSize;
    req->is_write = true;
    co_await block.SubmitAndWait(req);
  };
  auto body = [&]() -> Task<void> {
    co_await one_write(0);
    sink.Detach();
    co_await one_write(1 << 20);  // not recorded
  };
  sim.Spawn(body());
  sim.Run(Sec(1));
  EXPECT_FALSE(sink.attached());
  // The completion recorded before Detach survives it.
  std::vector<obs::RequestSpan> spans = obs::BuildSpans(sink.events());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].sector, 0u);
}

TEST(TraceSink, CoexistsWithSplitSchedulerHook) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  sched->SetAccountLimit(1, 4.0 * 1024 * 1024);
  ComposedScheduler* token = sched.get();
  StorageStack stack(config, &cpu, std::move(sched), nullptr);
  obs::TraceSink sink;
  sink.Attach();
  stack.Start();
  Process* p = stack.NewProcess("app");
  p->set_account(1);
  auto body = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*p, "/f");
    co_await stack.kernel().Write(*p, ino, 0, 4 << 20);
    co_await stack.kernel().Fsync(*p, ino);
  };
  sim.Spawn(body());
  sim.Run(Sec(20));
  // Both consumers observed the I/O: the sink recorded completions AND the
  // token scheduler revised the account at block completion.
  EXPECT_FALSE(obs::BuildSpans(sink.events()).empty());
  EXPECT_NE(token->account_balance(1), 0.0);
}

}  // namespace
}  // namespace splitio
