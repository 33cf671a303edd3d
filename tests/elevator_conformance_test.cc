// Elevator conformance: shared invariants every scheduler must uphold on
// the legacy configuration (one dispatch context at depth 1) and on blk-mq
// (two contexts at depth 4).
//
// For each (scheduler, topology) pair a full stack runs a mixed workload —
// two writers with fsyncs plus a random reader — and the test asserts:
//  - no request is dropped: everything submitted completes or merges once
//    the workload quiesces;
//  - no completion without dispatch: every successfully completed request
//    carries device service evidence (service_time, and a media sequence
//    number for writes);
//  - flush ordering: when a flush barrier completes, every write that
//    completed before it is durable (device durable_seq covers it), on
//    every hardware queue;
//  - the device command queue is drained at quiescence.
//
// A second suite pins down the schedule of one context at depth 1, however
// it is configured (mq off, or mq with one hardware queue of depth 1): its
// per-request completion trace must hash to what the legacy serial
// dispatch loop produced before that loop was folded into the context
// loops, for every scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/sched_factory.h"
#include "src/core/storage_stack.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

namespace splitio {

// gtest prints each parameter into the test list: print the scheduler's
// name rather than the entry's bytes (pointers differ from run to run).
void PrintTo(const RegisteredSpec& sched, std::ostream* os) {
  *os << sched.name;
}

namespace {

// Test-name label for a registered scheduler: gtest names allow only
// [A-Za-z0-9_], so "block-noop" becomes "block_noop".
std::string SchedLabel(const RegisteredSpec& sched) {
  std::string label = sched.name;
  std::replace(label.begin(), label.end(), '-', '_');
  return label;
}

struct ConformanceStack {
  ConformanceStack(const RegisteredSpec& sched, const BlockMqConfig& mq) {
    StackConfig config;
    config.device = StackConfig::DeviceKind::kSsd;
    config.ssd.channels = 4;
    config.mq = mq;
    // Volatile write cache + barriers so flushes are real ordering points.
    config.volatile_write_cache = true;
    config.layout.durability_barriers = true;
    cpu = std::make_unique<CpuModel>(8);
    SchedInstance inst = MakeSched(sched.build());
    stack = std::make_unique<StorageStack>(config, cpu.get(),
                                           std::move(inst.split),
                                           std::move(inst.legacy));
    stack->Start();
  }
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<StorageStack> stack;
};

// One completed request as the completion hook sees it. `id` counts from
// the first completion's request id: ids are process-wide, so two runs in
// one process only agree on differences.
struct CompletionRecord {
  Nanos time = 0;
  int64_t id = 0;
  uint64_t sector = 0;
  uint32_t bytes = 0;
  bool write = false;
  bool flush = false;
};

// FNV-1a over every field of every entry, in completion order.
uint64_t TraceHash(const std::vector<CompletionRecord>& trace) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const CompletionRecord& e : trace) {
    mix(static_cast<uint64_t>(e.time));
    mix(static_cast<uint64_t>(e.id));
    mix(e.sector);
    mix(e.bytes);
    mix((e.write ? 1u : 0u) | (e.flush ? 2u : 0u));
  }
  return h;
}

// The mixed workload's completion traces from the legacy serial dispatch
// loop, recorded before it was folded into the context loops. Schedulers
// that order this light workload alike share a trace.
struct RecordedTrace {
  const char* sched;
  size_t requests;
  uint64_t hash;
};
constexpr RecordedTrace kLegacyTraces[] = {
    {"block-noop", 2186, 0x555b8490f413f643ULL},
    {"cfq", 2446, 0x2b4c0f02a3c6dd87ULL},
    {"block-deadline", 2186, 0x555b8490f413f643ULL},
    {"split-noop", 2160, 0x8cbc640a720d8508ULL},
    {"afq", 2160, 0x8cbc640a720d8508ULL},
    {"split-deadline", 2160, 0x8cbc640a720d8508ULL},
    {"split-token", 2160, 0x8cbc640a720d8508ULL},
    {"scs-token", 2108, 0x8e9b500cfa4c5da1ULL},
    {"deadline-token", 2160, 0x8cbc640a720d8508ULL},
    {"tenant-afq", 2160, 0x8cbc640a720d8508ULL},
};

// Outcome of one workload run.
struct RunOutcome {
  std::vector<CompletionRecord> trace;  // completion order
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t merged = 0;
  uint64_t flushes = 0;
};

// Two writers (write + fsync rounds) and one random reader; bounded op
// counts so the stack quiesces, then a generous horizon drains background
// writeback/journal activity.
RunOutcome RunMixedWorkload(ConformanceStack& h, bool check_invariants) {
  Simulator& sim = Simulator::current();
  BlockLayer& block = h.stack->block();
  BlockDevice& device = h.stack->device();

  RunOutcome out;
  uint64_t first_id = 0;
  block.add_completion_hook([&](const BlockRequest& req) {
    if (out.trace.empty()) {
      first_id = req.request_id;
    }
    int64_t id = static_cast<int64_t>(req.request_id - first_id);
    out.trace.push_back({sim.Now(), id, req.sector, req.bytes, req.is_write,
                         req.is_flush});
  });

  // Invariant probes, fed by the block layer's completion stream.
  uint64_t max_completed_write_seq = 0;
  if (check_invariants) {
    block.add_completion_hook([&](const BlockRequest& req) {
      if (req.result != 0) {
        return;  // failed requests carry no service evidence
      }
      if (req.is_flush) {
        // Flush barrier: everything that completed before this flush must
        // be durable by the time the flush completes.
        EXPECT_GE(device.durable_seq(), max_completed_write_seq)
            << "flush completed without covering an earlier write";
        return;
      }
      // Completion implies dispatch: the device stamped a service time,
      // and writes got a media sequence number.
      EXPECT_GT(req.service_time, 0) << "completed request never serviced";
      if (req.is_write) {
        EXPECT_GT(req.device_seq, 0u) << "completed write has no media seq";
        max_completed_write_seq =
            std::max(max_completed_write_seq, req.device_seq);
      }
    });
  }

  Process* w1 = h.stack->NewProcess("writer1");
  Process* w2 = h.stack->NewProcess("writer2");
  Process* rd = h.stack->NewProcess("reader");
  int64_t src = h.stack->fs().CreatePreallocated("/src", 512ULL << 20);

  int finished = 0;
  // `path` by value: a coroutine's reference parameters dangle once the
  // caller's temporaries die at the first suspension point.
  auto writer = [&](Process* p, std::string path) -> Task<void> {
    OsKernel& kernel = h.stack->kernel();
    int64_t ino = co_await kernel.Creat(*p, path);
    for (int round = 0; round < 4; ++round) {
      co_await kernel.Write(*p, ino,
                            static_cast<uint64_t>(round) * 64 * kPageSize,
                            64 * kPageSize);
      co_await kernel.Fsync(*p, ino);
    }
    ++finished;
  };
  auto reader = [&]() -> Task<void> {
    WorkloadStats stats;
    co_await RandomReader(h.stack->kernel(), *rd, src, 512ULL << 20, 4096,
                          /*seed=*/7, /*until=*/Msec(200), &stats);
    ++finished;
  };
  sim.Spawn(writer(w1, "/a"));
  sim.Spawn(writer(w2, "/b"));
  sim.Spawn(reader());
  // Generous horizon: the op-bounded workload finishes well before this;
  // the remainder drains checkpoint/writeback stragglers. Deliberately off
  // the 5 s writeback/commit grid so no periodic task submits a request at
  // the exact cut-off instant (it would be counted but never complete).
  sim.Run(Msec(27300));
  EXPECT_EQ(finished, 3) << "workload did not complete within the horizon";

  out.submitted = block.total_submitted();
  out.completed = block.total_completed();
  out.merged = block.total_merged();
  out.flushes = device.flushes();

  if (check_invariants) {
    // Quiescence: nothing in flight anywhere, and nothing dropped — every
    // submitted request either completed or merged into one that did.
    EXPECT_EQ(block.inflight(), 0);
    EXPECT_EQ(device.queued_outstanding(), 0u);
    EXPECT_EQ(out.submitted, out.completed + out.merged);
    EXPECT_GT(out.flushes, 0u) << "fsync rounds should have flushed";
  }
  return out;
}

class ElevatorConformance
    : public ::testing::TestWithParam<std::tuple<RegisteredSpec, bool>> {};

TEST_P(ElevatorConformance, SharedInvariantsHold) {
  auto [sched, use_mq] = GetParam();
  BlockMqConfig mq;
  if (use_mq) {
    mq.enabled = true;
    mq.nr_hw_queues = 2;
    mq.queue_depth = 4;
  }
  Simulator sim;
  ConformanceStack h(sched, mq);
  if (use_mq) {
    // Single-queue elevators must collapse to one context; mq-aware ones
    // fan out.
    int expected = h.stack->block().elevator().mq_aware() ? 2 : 1;
    EXPECT_EQ(h.stack->block().nr_hw_queues(), expected);
  }
  RunMixedWorkload(h, /*check_invariants=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ElevatorConformance,
    ::testing::Combine(::testing::ValuesIn(RegisteredSpecs()),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<RegisteredSpec, bool>>&
           param_info) {
      return SchedLabel(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_mq" : "_legacy");
    });

// One context at depth 1, configured as mq off or as mq(1,1), must keep the
// legacy serial loop's schedule exactly: the same requests complete at the
// same times in the same order.
class MqDepthOneEquivalence
    : public ::testing::TestWithParam<RegisteredSpec> {};

TEST_P(MqDepthOneEquivalence, MatchesLegacyExactly) {
  const RegisteredSpec& sched = GetParam();
  const RecordedTrace* recorded = nullptr;
  for (const RecordedTrace& entry : kLegacyTraces) {
    if (std::string(entry.sched) == sched.name) {
      recorded = &entry;
    }
  }
  ASSERT_NE(recorded, nullptr) << "no recorded legacy trace for "
                               << sched.name;
  BlockMqConfig mq11;
  mq11.enabled = true;
  mq11.nr_hw_queues = 1;
  mq11.queue_depth = 1;
  for (const BlockMqConfig& config : {BlockMqConfig(), mq11}) {
    SCOPED_TRACE(config.enabled ? "mq(1,1)" : "legacy");
    Simulator sim;
    ConformanceStack h(sched, config);
    RunOutcome out = RunMixedWorkload(h, /*check_invariants=*/false);
    EXPECT_EQ(out.trace.size(), recorded->requests);
    EXPECT_EQ(TraceHash(out.trace), recorded->hash);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, MqDepthOneEquivalence,
    ::testing::ValuesIn(RegisteredSpecs()),
    [](const ::testing::TestParamInfo<RegisteredSpec>& param_info) {
      return SchedLabel(param_info.param);
    });

}  // namespace
}  // namespace splitio
