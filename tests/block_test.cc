// Tests for the block layer and the legacy elevators (noop, CFQ,
// Block-Deadline), including the information-loss behaviours the paper
// builds on: CFQ classifying by submitter, deadline inversion, etc.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/block/block_deadline.h"
#include "src/block/block_layer.h"
#include "src/block/cfq.h"
#include "src/block/noop.h"
#include "src/device/device.h"
#include "src/sim/simulator.h"
#include "tests/dispatch_stream.h"

namespace splitio {
namespace {

BlockRequestPtr MakeReq(uint64_t sector, uint32_t bytes, bool write,
                        Process* submitter = nullptr, bool sync = false) {
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

TEST(BlockLayer, CompletesSubmittedRequests) {
  Simulator sim;
  HddModel hdd;
  NoopElevator noop;
  BlockLayer block(&hdd, &noop);
  block.Start();
  int completed = 0;
  auto submitter = [&](uint64_t sector) -> Task<void> {
    co_await block.SubmitAndWait(MakeReq(sector, kPageSize, false));
    ++completed;
  };
  sim.Spawn(submitter(0));
  sim.Spawn(submitter(1000000));
  sim.Run(Sec(10));
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(block.total_completed(), 2u);
}

TEST(BlockLayer, CountsSubmitterPriorities) {
  Simulator sim;
  HddModel hdd;
  NoopElevator noop;
  BlockLayer block(&hdd, &noop);
  block.Start();
  Process p1(1, "a");
  p1.set_priority(2);
  Process p2(2, "b");
  p2.set_priority(6);
  auto body = [&]() -> Task<void> {
    co_await block.SubmitAndWait(MakeReq(0, kPageSize, true, &p1));
    co_await block.SubmitAndWait(MakeReq(8, kPageSize, true, &p1));
    co_await block.SubmitAndWait(MakeReq(16, kPageSize, true, &p2));
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  EXPECT_EQ(block.submitted_by_priority(2), 2u);
  EXPECT_EQ(block.submitted_by_priority(6), 1u);
  EXPECT_EQ(block.total_submitted(), 3u);
}

TEST(Noop, DispatchesFifo) {
  NoopElevator noop;
  auto a = MakeReq(100, kPageSize, false);
  auto b = MakeReq(0, kPageSize, false);
  noop.Add(a);
  noop.Add(b);
  EXPECT_EQ(noop.Next(), a);
  EXPECT_EQ(noop.Next(), b);
  EXPECT_EQ(noop.Next(), nullptr);
  EXPECT_TRUE(noop.Empty());
}

// Eight synchronous readers with priorities 0..7 should receive device time
// roughly proportional to weight 8-prio under CFQ (Figure 11a).
TEST(Cfq, SyncReadersShareByPriority) {
  Simulator sim;
  HddModel hdd;
  CfqElevator cfq;
  BlockLayer block(&hdd, &cfq);
  block.Start();
  std::vector<std::unique_ptr<Process>> procs;
  std::vector<uint64_t> blocks_done(8, 0);
  for (int p = 0; p < 8; ++p) {
    procs.push_back(std::make_unique<Process>(p + 1, "reader"));
    procs.back()->set_priority(p);
  }
  auto reader = [&](int idx) -> Task<void> {
    // Each reader streams sequentially in its own 1 GB region.
    uint64_t base = static_cast<uint64_t>(idx) * 2000000;
    for (uint64_t i = 0;; ++i) {
      auto req = MakeReq(base + i * (kPageSize / kSectorSize), kPageSize,
                         false, procs[static_cast<size_t>(idx)].get(), true);
      co_await block.SubmitAndWait(std::move(req));
      ++blocks_done[static_cast<size_t>(idx)];
    }
  };
  for (int i = 0; i < 8; ++i) {
    sim.Spawn(reader(i));
  }
  sim.Run(Sec(20));
  uint64_t total = 0;
  for (uint64_t b : blocks_done) {
    total += b;
  }
  ASSERT_GT(total, 0u);
  // Priority 0 (weight 8) should get roughly 8x the share of priority 7
  // (weight 1). Allow generous tolerance; the shape is what matters.
  double share0 = static_cast<double>(blocks_done[0]) / static_cast<double>(total);
  double share7 = static_cast<double>(blocks_done[7]) / static_cast<double>(total);
  EXPECT_GT(share0, 3.0 * share7);
  EXPECT_GT(share0, 0.12);
  EXPECT_LT(share7, 0.10);
}

// All writes submitted by one writeback proxy process collapse into a single
// CFQ queue: the original writers' priorities are invisible (Figure 3).
TEST(Cfq, BufferedWritesCollapseToSubmitterQueue) {
  Simulator sim;
  HddModel hdd;
  CfqElevator cfq;
  BlockLayer block(&hdd, &cfq);
  block.Start();
  Process writeback(99, "writeback");  // priority 4 like Linux pdflush
  // Requests *caused* by 8 different writers but submitted by writeback.
  auto body = [&]() -> Task<void> {
    std::vector<BlockRequestPtr> reqs;
    for (int w = 0; w < 8; ++w) {
      auto req = MakeReq(static_cast<uint64_t>(w) * 1000000, kPageSize, true,
                         &writeback);
      req->causes = CauseSet(w + 1);
      reqs.push_back(req);
      block.Submit(req);
    }
    for (auto& r : reqs) {
      co_await r->done.Wait();
    }
  };
  sim.Spawn(body());
  sim.Run(Sec(10));
  // Every request was accounted to priority 4 (the proxy's priority).
  EXPECT_EQ(block.submitted_by_priority(4), 8u);
  for (int p = 0; p < 8; ++p) {
    if (p != 4) {
      EXPECT_EQ(block.submitted_by_priority(p), 0u) << p;
    }
  }
}

TEST(Cfq, IdleClassServedOnlyWhenBestEffortIdle) {
  Simulator sim;
  HddModel hdd;
  CfqElevator cfq;
  BlockLayer block(&hdd, &cfq);
  block.Start();
  Process normal(1, "normal");
  Process idle(2, "idle");
  idle.set_io_class(IoClass::kIdle);
  std::vector<int> completion_order;
  auto body = [&]() -> Task<void> {
    // Submit idle-class work first, then best-effort work at the same time;
    // the best-effort request must be served first anyway.
    auto idle_req = MakeReq(5000000, kPageSize, false, &idle);
    auto be_req = MakeReq(0, kPageSize, false, &normal);
    block.Submit(idle_req);
    block.Submit(be_req);
    auto waiter = [&completion_order](BlockRequestPtr r, int id) -> Task<void> {
      co_await r->done.Wait();
      completion_order.push_back(id);
    };
    co_await waiter(be_req, 1);
    co_await waiter(idle_req, 2);
  };
  sim.Spawn(body());
  sim.Run(Sec(5));
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
}

TEST(BlockDeadline, ReadsPreferredButWritesNotStarved) {
  BlockDeadlineConfig config;
  config.fifo_batch = 1;  // one request per batch for a crisp test
  config.writes_starved = 2;
  BlockDeadlineElevator elv(config);
  Simulator sim;  // Needed for Now() in expiry checks.
  for (int i = 0; i < 4; ++i) {
    auto r = MakeReq(static_cast<uint64_t>(i) * 8, kPageSize, false);
    r->enqueue_time = 0;
    elv.Add(std::move(r));
    auto w = MakeReq(1000000 + static_cast<uint64_t>(i) * 8, kPageSize, true);
    w->enqueue_time = 0;
    elv.Add(std::move(w));
  }
  std::vector<bool> kinds;
  for (;;) {
    BlockRequestPtr req = elv.Next();
    if (req == nullptr) {
      break;
    }
    kinds.push_back(req->is_write);
  }
  ASSERT_EQ(kinds.size(), 8u);
  // Pattern: two reads, then a rescued write, repeating.
  EXPECT_EQ(kinds[0], false);
  EXPECT_EQ(kinds[1], false);
  EXPECT_EQ(kinds[2], true);
  EXPECT_EQ(kinds[3], false);
  EXPECT_EQ(kinds[4], false);
  EXPECT_EQ(kinds[5], true);
}

TEST(BlockDeadline, ExpiredRequestJumpsQueue) {
  Simulator sim;
  BlockDeadlineConfig config;
  config.read_expiry = Msec(20);
  config.fifo_batch = 16;
  BlockDeadlineElevator elv(config);
  // An old request far away on disk and a stream of fresh near requests.
  auto old_req = MakeReq(9000000, kPageSize, false);
  old_req->enqueue_time = 0;
  elv.Add(old_req);
  std::vector<BlockRequestPtr> fresh;
  for (int i = 0; i < 4; ++i) {
    auto r = MakeReq(static_cast<uint64_t>(i) * 8, kPageSize, false);
    r->enqueue_time = 0;
    elv.Add(r);
    fresh.push_back(std::move(r));
  }
  // Advance the clock past the read expiry so old_req is overdue.
  auto spin = []() -> Task<void> { co_await Delay(Msec(30)); };
  sim.Spawn(spin());
  sim.Run();
  BlockRequestPtr first = elv.Next();
  EXPECT_EQ(first, old_req);  // rescued despite being far away
}

TEST(BlockDeadline, PerProcessDeadlineOverride) {
  Simulator sim;
  Process fast(1, "fast");
  fast.set_write_deadline(Msec(5));
  BlockDeadlineElevator elv;
  auto req = MakeReq(0, kPageSize, true, &fast);
  req->enqueue_time = Msec(100);
  elv.Add(req);
  EXPECT_EQ(req->deadline, Msec(105));
}

TEST(BlockDeadline, SortedDispatchIsElevatorOrder) {
  Simulator sim;
  BlockDeadlineElevator elv;
  std::vector<uint64_t> sectors = {500, 100, 900, 300, 700};
  for (uint64_t s : sectors) {
    auto r = MakeReq(s, kPageSize, false);
    r->enqueue_time = 0;
    elv.Add(std::move(r));
  }
  std::vector<uint64_t> order;
  for (;;) {
    BlockRequestPtr req = elv.Next();
    if (req == nullptr) {
      break;
    }
    order.push_back(req->sector);
  }
  EXPECT_EQ(order, (std::vector<uint64_t>{100, 300, 500, 700, 900}));
}

// Requests dispatched in sorted order must leave the expiry FIFOs too: once
// Next() has drained the elevator and the caller dropped what it got back,
// the elevator may keep no request alive.
TEST(BlockDeadline, DrainedRequestsAreReleased) {
  Simulator sim;
  BlockDeadlineElevator elv;
  std::vector<std::weak_ptr<BlockRequest>> held;
  for (int i = 0; i < 64; ++i) {
    // Scrambled sectors: sorted order differs from arrival order.
    auto r = MakeReq(static_cast<uint64_t>((i * 37) % 64) * 1024, kPageSize,
                     /*write=*/i % 4 == 0);
    r->enqueue_time = 0;
    held.push_back(r);
    elv.Add(std::move(r));
  }
  int dispatched = 0;
  while (elv.Next() != nullptr) {
    ++dispatched;
  }
  EXPECT_EQ(dispatched, 64);
  for (const std::weak_ptr<BlockRequest>& w : held) {
    EXPECT_TRUE(w.expired());
  }
}

// The dispatch order of a random stream (tests/dispatch_stream.h), recorded
// before Split-Deadline moved onto this elevator's queues: expiry jumps,
// batches, the writes_starved read preference and back-merges all feed it.
TEST(BlockDeadline, DispatchOrderMatchesRecordedHash) {
  struct Recorded {
    uint64_t seed;
    uint64_t dispatched;
    uint64_t hash;
  };
  constexpr Recorded kRecorded[] = {
      {1, 10827, 0xd042b661bcd16ed4ULL},
      {2, 10932, 0x20ffeb69a2b7be94ULL},
      {3, 10958, 0x545788dcd70459b3ULL},
  };
  for (const Recorded& r : kRecorded) {
    BlockDeadlineConfig config;
    config.read_expiry = Msec(20);
    config.write_expiry = Msec(100);
    config.fifo_batch = 4;
    BlockDeadlineElevator elv(config);
    DispatchDigest d = RunDispatchStream(elv, r.seed);
    EXPECT_EQ(d.dispatched, r.dispatched) << "seed " << r.seed;
    EXPECT_EQ(d.hash, r.hash)
        << "seed " << r.seed << ": 0x" << std::hex << d.hash;
  }
}

}  // namespace
}  // namespace splitio
