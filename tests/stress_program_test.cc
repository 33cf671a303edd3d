// Tier-1 coverage for the stress subsystem's deterministic pieces: program
// and scenario JSON round-trips, generator determinism, rename semantics,
// and executor smoke runs (including the cow stack).
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <optional>
#include <sstream>
#include <string>

#include "src/stress/executor.h"
#include "src/stress/runner.h"
#include "src/stress/scenario.h"
#include "src/workload/program.h"

namespace splitio {
namespace {

WorkloadProgram SampleProgram() {
  WorkloadProgram p;
  p.num_procs = 2;
  p.num_files = 3;
  p.priorities = {1, 6};
  StressOp w;
  w.kind = StressOpKind::kWrite;
  w.proc = 0;
  w.file = 2;
  w.offset = 8192;
  w.len = 4096;
  w.delay = Msec(3);
  p.ops.push_back(w);
  StressOp r;
  r.kind = StressOpKind::kRead;
  r.proc = 1;
  r.file = 0;
  r.offset = 0;
  r.len = 512;
  p.ops.push_back(r);
  StressOp f;
  f.kind = StressOpKind::kFsync;
  f.proc = 0;
  f.file = 2;
  p.ops.push_back(f);
  StressOp m;
  m.kind = StressOpKind::kRename;
  m.proc = 1;
  m.file = 1;
  m.tag = 4;
  p.ops.push_back(m);
  return p;
}

TEST(StressProgram, JsonRoundTrip) {
  WorkloadProgram p = SampleProgram();
  WorkloadProgram back;
  ASSERT_TRUE(ProgramFromJson(ProgramToJson(p), &back));
  EXPECT_EQ(p, back);
}

TEST(StressProgram, FromJsonRejectsOutOfRangeIndices) {
  WorkloadProgram p = SampleProgram();
  p.ops[0].file = 7;  // >= num_files
  WorkloadProgram back;
  EXPECT_FALSE(ProgramFromJson(ProgramToJson(p), &back));
}

TEST(StressProgram, WithOpsKeepsSelection) {
  WorkloadProgram p = SampleProgram();
  WorkloadProgram sub = p.WithOps({0, 3});
  ASSERT_EQ(sub.ops.size(), 2u);
  EXPECT_EQ(sub.ops[0], p.ops[0]);
  EXPECT_EQ(sub.ops[1], p.ops[3]);
  EXPECT_EQ(sub.num_procs, p.num_procs);
  EXPECT_EQ(sub.priorities, p.priorities);
}

TEST(StressScenario, GeneratorIsDeterministic) {
  for (uint64_t seed : {1ull, 42ull, 31337ull}) {
    EXPECT_EQ(GenerateScenario(seed), GenerateScenario(seed));
  }
  EXPECT_NE(GenerateScenario(1).program.ops,
            GenerateScenario(2).program.ops);
}

TEST(StressScenario, GeneratorRespectsOptions) {
  GenOptions options;
  options.allow_cow = false;
  options.allow_mq = false;
  options.allow_faults = false;
  options.allow_crash = false;
  options.max_ops = 12;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Scenario s = GenerateScenario(seed, options);
    EXPECT_NE(s.stack.fs, StackConfig::FsKind::kCow);
    EXPECT_FALSE(s.stack.mq);
    EXPECT_FALSE(s.stack.transient_faults);
    EXPECT_FALSE(s.stack.crash);
    EXPECT_GE(static_cast<int>(s.program.ops.size()), options.min_ops);
    EXPECT_LE(static_cast<int>(s.program.ops.size()), options.max_ops);
    // Generated programs are always valid per the serializer's checks.
    WorkloadProgram back;
    EXPECT_TRUE(ProgramFromJson(ProgramToJson(s.program), &back));
  }
}

TEST(StressScenario, JsonRoundTrip) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Scenario s = GenerateScenario(seed);
    s.stack.control = NegativeControl::kDropCompletion;
    Scenario back;
    ASSERT_TRUE(ScenarioFromJson(ScenarioToJson(s), &back)) << seed;
    EXPECT_EQ(s, back) << seed;
  }
}

TEST(StressScenario, ReproJsonRoundTrip) {
  StressFailure f;
  f.seed = 99;
  f.oracle = "conservation";
  f.detail = "submitted=3 != completed=2 + merged=0";
  f.scenario = GenerateScenario(99);
  StressFailure back;
  ASSERT_TRUE(ReproFromJson(ReproToJson(f), &back));
  EXPECT_EQ(back.seed, f.seed);
  EXPECT_EQ(back.oracle, f.oracle);
  EXPECT_EQ(back.detail, f.detail);
  EXPECT_EQ(back.scenario, f.scenario);
}

// A hand-built scenario: the executor must report per-op results that match
// the documented determinism contract (write/read return len, fsync 0,
// renames owner-namespaced).
Scenario CraftedScenario() {
  Scenario s;
  s.seed = 7;
  s.stack.sched = SchedKind::kCfq;
  s.program.num_procs = 1;
  s.program.num_files = 2;
  s.program.priorities = {0};
  auto push = [&](StressOpKind kind, int file, uint64_t off, uint64_t len,
                  int tag) {
    StressOp op;
    op.kind = kind;
    op.proc = 0;
    op.file = file;
    op.offset = off;
    op.len = len;
    op.tag = tag;
    s.program.ops.push_back(op);
  };
  push(StressOpKind::kWrite, 0, 0, 10000, 0);
  push(StressOpKind::kRead, 0, 4096, 4096, 0);
  push(StressOpKind::kRead, 1, 0, 100, 0);  // hole read: zero-fill, len
  push(StressOpKind::kFsync, 0, 0, 0, 0);
  push(StressOpKind::kRename, 0, 0, 0, 1);  // "/f0" -> "/p0_r1"
  push(StressOpKind::kRename, 0, 0, 0, 1);  // same ino, same target: 0
  push(StressOpKind::kRename, 1, 0, 0, 1);  // target taken by file 0
  push(StressOpKind::kWrite, 0, 10000, 2000, 0);
  return s;
}

TEST(StressExecutor, CraftedScenarioResults) {
  ExecResult result = ExecuteScenario(CraftedScenario());
  ASSERT_TRUE(result.all_ops_completed);
  ASSERT_EQ(result.op_results.size(), 8u);
  EXPECT_EQ(result.op_results[0], 10000);
  EXPECT_EQ(result.op_results[1], 4096);
  EXPECT_EQ(result.op_results[2], 100);
  EXPECT_EQ(result.op_results[3], 0);
  EXPECT_EQ(result.op_results[4], 0);
  EXPECT_EQ(result.op_results[5], 0);
  EXPECT_EQ(result.op_results[6], -EEXIST);
  EXPECT_EQ(result.op_results[7], 2000);
  ASSERT_EQ(result.file_sizes.size(), 2u);
  EXPECT_EQ(result.file_sizes[0], 12000u);
  EXPECT_EQ(result.file_sizes[1], 0u);
  EXPECT_GT(result.submitted, 0u);
  EXPECT_EQ(result.submitted, result.completed + result.merged);
  EXPECT_EQ(result.inflight_at_end, 0);
  EXPECT_TRUE(result.elevator_empty);
  EXPECT_GT(result.pages_dirtied, 0u);
}

TEST(StressExecutor, TracedRunBuildsOneSpanPerRequest) {
  ExecOptions options;
  options.trace = true;
  ExecResult result = ExecuteScenario(CraftedScenario(), options);
  ASSERT_TRUE(result.traced);
  EXPECT_EQ(result.spans.size(), result.completed + result.merged);
}

TEST(StressExecutor, CowStackRunsPrograms) {
  Scenario s = CraftedScenario();
  s.stack.fs = StackConfig::FsKind::kCow;
  s.stack.sched = SchedKind::kSplitDeadline;
  ExecResult result = ExecuteScenario(s);
  EXPECT_TRUE(result.all_ops_completed);
  EXPECT_EQ(result.op_results[0], 10000);
  EXPECT_EQ(result.file_sizes[0], 12000u);
  EXPECT_EQ(result.submitted, result.completed + result.merged);
}

TEST(StressExecutor, ExecutionIsReproducible) {
  Scenario s = GenerateScenario(11);
  ExecResult a = ExecuteScenario(s);
  ExecResult b = ExecuteScenario(s);
  EXPECT_EQ(a.op_results, b.op_results);
  EXPECT_EQ(a.file_sizes, b.file_sizes);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.device_busy, b.device_busy);
  EXPECT_EQ(a.ops_done_at, b.ops_done_at);
}

// A log stream that remembers when its first byte arrived.
class FirstWriteLog : public std::stringbuf {
 public:
  std::optional<std::chrono::steady_clock::time_point> first_write;

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    Stamp();
    return std::stringbuf::xsputn(s, n);
  }
  int_type overflow(int_type c) override {
    Stamp();
    return std::stringbuf::overflow(c);
  }

 private:
  void Stamp() {
    if (!first_write) {
      first_write = std::chrono::steady_clock::now();
    }
  }
};

// A parallel campaign emits each seed's outcome once every earlier seed is
// done, not after the last worker exits: the nightly's 10^8-seed range must
// neither wait for its budget to end nor hold a result per requested seed
// before it logs anything. Its output still equals a sequential run over
// the seeds it completed.
TEST(StressCampaign, ParallelRunLogsSeedsWhileRunning) {
  StressOptions options;
  options.num_seeds = 200000;
  options.budget_seconds = 2;
  options.jobs = 2;
  options.verbose = true;
  FirstWriteLog buf;
  std::ostream log(&buf);
  auto start = std::chrono::steady_clock::now();
  StressReport report = RunStress(options, &log);
  ASSERT_TRUE(buf.first_write.has_value());
  EXPECT_LT(*buf.first_write - start, std::chrono::seconds(1));
  EXPECT_TRUE(report.budget_exhausted);
  ASSERT_GT(report.seeds_run, 0);
  ASSERT_LT(report.seeds_run, options.num_seeds);

  StressOptions sequential = options;
  sequential.jobs = 1;
  sequential.budget_seconds = 0;
  sequential.num_seeds = report.seeds_run;
  std::ostringstream expected;
  StressReport reference = RunStress(sequential, &expected);
  EXPECT_EQ(reference.seeds_run, report.seeds_run);
  std::string want = expected.str();
  ASSERT_FALSE(want.empty());
  want.insert(want.size() - 1, " (budget exhausted)");
  EXPECT_EQ(buf.str(), want);
}

}  // namespace
}  // namespace splitio
