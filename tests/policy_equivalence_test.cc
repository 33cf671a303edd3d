// Kind vs pinned-spec equivalence: for every canonical SchedKind, a scenario
// that pins the kind's PolicySpec — read back from its JSON, the way a
// repro's "spec" key stores it — replays byte-identically to the scenario
// that names the kind: same per-op results and latencies, same file
// contents, same block/device schedule fingerprint. Both paths build through
// MakeSched(const PolicySpec&), so this checks what can still differ: that
// serialization keeps every field that steers a schedule, and that the
// executor's spec path agrees with its kind path.
//
// Coverage: two handcrafted workloads shaped like the paper figures
// (fig05 fsync entanglement, fig09 mixed read/write) plus 50 generated
// stress scenarios spanning fs/device/mq/fault/crash axes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "src/core/sched_factory.h"
#include "src/sched/policy.h"
#include "src/stress/executor.h"
#include "src/stress/scenario.h"

namespace splitio {
namespace {

// Every field an untraced ExecuteScenario computes, not just the content
// subset the stress content-differential oracle compares.
auto Fingerprint(const ExecResult& r) {
  return std::tie(r.all_ops_completed, r.ops_done_at, r.op_results,
                  r.op_latency, r.file_sizes, r.submitted, r.completed,
                  r.merged, r.device_bytes_read, r.device_bytes_written,
                  r.device_busy, r.device_flushes, r.inflight_at_end,
                  r.elevator_empty, r.queue_peak, r.pages_dirtied,
                  r.wb_pages_flushed, r.faults_injected, r.crash_points);
}

// Runs `scenario` once naming `kind` and once pinning SpecForKind(kind)
// after ToJson -> FromJson, and expects identical fingerprints.
void CheckKindEquivalence(Scenario scenario, SchedKind kind,
                          const std::string& label) {
  scenario.stack.sched = kind;
  scenario.stack.use_spec = false;
  scenario.stack.spec = PolicySpec();

  Scenario pinned = scenario;
  pinned.stack.use_spec = true;
  jsonmini::ParseError err;
  ASSERT_TRUE(PolicySpecFromJson(PolicySpecToJson(SpecForKind(kind)),
                                 &pinned.stack.spec, &err))
      << label << ": " << err.Describe();
  ASSERT_EQ(pinned.stack.spec, SpecForKind(kind)) << label;

  ExecOptions opts;
  opts.trace = false;
  opts.crash_points = 2;
  ExecResult by_kind = ExecuteScenario(scenario, opts);
  ExecResult by_spec = ExecuteScenario(pinned, opts);
  EXPECT_EQ(Fingerprint(by_kind), Fingerprint(by_spec))
      << label << "/" << SchedName(kind);
}

StressOp Op(StressOpKind kind, int proc, int file, uint64_t offset = 0,
            uint64_t len = 0, Nanos delay = 0) {
  StressOp op;
  op.kind = kind;
  op.proc = proc;
  op.file = file;
  op.offset = offset;
  op.len = len;
  op.delay = delay;
  return op;
}

// Fig05-shaped program: a small transactional writer (4 KB append + fsync
// per round) sharing the stack with a bulk buffered writer — journal
// entanglement puts every layer's ordering decisions on the line.
Scenario Fig05Scenario() {
  Scenario s;
  s.seed = 5;
  s.program.num_procs = 2;
  s.program.num_files = 2;
  s.program.priorities = {1, 7};
  std::vector<StressOp>& ops = s.program.ops;
  for (uint64_t round = 0; round < 8; ++round) {
    ops.push_back(Op(StressOpKind::kWrite, 0, 0, round * 4096, 4096));
    ops.push_back(Op(StressOpKind::kFsync, 0, 0));
  }
  for (uint64_t i = 0; i < 6; ++i) {
    ops.push_back(
        Op(StressOpKind::kWrite, 1, 1, i * (256 << 10), 256 << 10, Msec(2)));
  }
  return s;
}

// Fig09-shaped program: mixed readers and writers across three processes,
// exercising read queues, anticipation, and write batching together.
Scenario Fig09Scenario() {
  Scenario s;
  s.seed = 9;
  s.program.num_procs = 3;
  s.program.num_files = 3;
  s.program.priorities = {2, 4, 6};
  std::vector<StressOp>& ops = s.program.ops;
  for (uint64_t i = 0; i < 10; ++i) {
    ops.push_back(Op(StressOpKind::kWrite, 0, 0, i * 65536, 65536));
    ops.push_back(
        Op(StressOpKind::kRead, 1, 0, (i * 7) % 16 * 4096, 4096, Msec(1)));
  }
  for (uint64_t i = 0; i < 4; ++i) {
    ops.push_back(Op(StressOpKind::kWrite, 2, 2, i * 16384, 16384));
    ops.push_back(Op(StressOpKind::kFsync, 2, 2, 0, 0, Msec(3)));
  }
  return s;
}

class PolicyEquivalence : public ::testing::TestWithParam<SchedKind> {};

TEST_P(PolicyEquivalence, Fig05Workload) {
  CheckKindEquivalence(Fig05Scenario(), GetParam(), "fig05");
}

TEST_P(PolicyEquivalence, Fig09Workload) {
  CheckKindEquivalence(Fig09Scenario(), GetParam(), "fig09");
}

TEST_P(PolicyEquivalence, FiftyStressSeeds) {
  GenOptions gen;
  gen.allow_random_spec = false;  // the kind axis is forced below
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    CheckKindEquivalence(GenerateScenario(seed, gen), GetParam(),
                         "stress-seed" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, PolicyEquivalence,
                         ::testing::ValuesIn(kAllSchedKinds),
                         [](const ::testing::TestParamInfo<SchedKind>& kind) {
                           std::string name = SchedName(kind.param);
                           for (char& ch : name) {
                             if (ch == '-') {
                               ch = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace splitio
