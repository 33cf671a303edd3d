// Trace ingestion: parser strictness, reconstruction, replay determinism,
// and the tier-1 replay of the committed sample traces under every
// scheduler with the full oracle battery.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/stress/oracles.h"
#include "src/stress/trace_repro.h"
#include "src/workload/trace/blktrace.h"
#include "src/workload/trace/csv.h"
#include "src/workload/trace/parse.h"
#include "src/workload/trace/reconstruct.h"
#include "src/workload/trace/replay.h"

#ifndef SPLITIO_TEST_DATA_DIR
#define SPLITIO_TEST_DATA_DIR "tests/data"
#endif

namespace splitio {
namespace ingest {
namespace {

std::string DataPath(const char* name) {
  return std::string(SPLITIO_TEST_DATA_DIR) + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// --- blktrace parsing -----------------------------------------------------

TEST(BlktraceParse, CommittedSampleParses) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(ParseBlktraceText(ReadFile(DataPath("sample_blktrace.txt")),
                                &trace, &err))
      << err.Describe();
  // Q records minus the pure-flush/plug lines that carry no payload are
  // data records; FN queue records become flushes.
  EXPECT_GT(trace.records.size(), 30u);
  EXPECT_GT(trace.lines_skipped, 0u);
  EXPECT_EQ(trace.lines_total, 50u);
  // First record is the first Q line, a journal write; times are relative
  // to the first record *line* in the file (the G at 0.000000000), so the
  // Q at 0.000001000 lands at 1000 ns.
  EXPECT_EQ(trace.records.front().when, 1000);
  EXPECT_EQ(trace.records.front().pid, 697);
  EXPECT_EQ(trace.records.front().kind, TraceOpKind::kWrite);
  EXPECT_EQ(trace.records.front().offset, 223490ull * 512);
  EXPECT_EQ(trace.records.front().len, 8ull * 512);
  // Timestamps are non-decreasing and relative to the first record.
  Nanos prev = -1;
  int flushes = 0;
  for (const TraceRecord& r : trace.records) {
    EXPECT_GE(r.when, prev);
    prev = r.when;
    flushes += r.kind == TraceOpKind::kFlush ? 1 : 0;
    if (r.kind == TraceOpKind::kFlush) {
      EXPECT_EQ(r.len, 0u);
    } else {
      EXPECT_GT(r.len, 0u);
    }
  }
  EXPECT_EQ(flushes, 3);  // the three "Q FN" lines
}

TEST(BlktraceParse, TruncatedLineFailsCleanly) {
  ParsedTrace trace;
  TraceError err;
  std::string text =
      "  8,0 1 1 0.000001000 697 Q W 223490 + 8 [kjournald]\n"
      "  8,0 1 2 0.000002000 697 Q W 223498 +\n";
  EXPECT_FALSE(ParseBlktraceText(text, &trace, &err));
  EXPECT_TRUE(trace.records.empty());  // never a partial trace
  EXPECT_EQ(err.line, 2u);
  EXPECT_NE(err.message.find("truncated"), std::string::npos)
      << err.Describe();
  // The byte offset points at the offending line's start.
  EXPECT_EQ(err.offset, text.find("  8,0 1 2"));
}

TEST(BlktraceParse, OutOfOrderTimestampFails) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseBlktraceText(
      "  8,0 1 1 0.000005000 697 Q W 100 + 8 [a]\n"
      "  8,0 1 2 0.000004000 697 Q W 200 + 8 [a]\n",
      &trace, &err));
  EXPECT_TRUE(trace.records.empty());
  EXPECT_EQ(err.line, 2u);
  EXPECT_NE(err.message.find("out-of-order"), std::string::npos);
}

TEST(BlktraceParse, UnknownActionCodeFails) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseBlktraceText(
      "  8,0 1 1 0.000001000 697 Z W 100 + 8 [a]\n", &trace, &err));
  EXPECT_EQ(err.line, 1u);
  EXPECT_NE(err.message.find("unknown record type"), std::string::npos);
}

TEST(BlktraceParse, UnknownRwbsFlagFails) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseBlktraceText(
      "  8,0 1 1 0.000001000 697 Q ? 100 + 8 [a]\n", &trace, &err));
  EXPECT_NE(err.message.find("unknown record type"), std::string::npos);
}

TEST(BlktraceParse, CrlfLineEndingsAccepted) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(ParseBlktraceText(
      "  8,0 1 1 0.000001000 697 Q W 100 + 8 [a]\r\n"
      "  8,0 1 2 0.000002000 697 Q R 200 + 16 [b]\r\n",
      &trace, &err))
      << err.Describe();
  ASSERT_EQ(trace.records.size(), 2u);
  EXPECT_EQ(trace.records[1].kind, TraceOpKind::kRead);
  EXPECT_EQ(trace.records[1].len, 16ull * 512);
}

TEST(BlktraceParse, OverlongFieldFails) {
  ParsedTrace trace;
  TraceError err;
  std::string text = "  8,0 1 1 0.000001000 697 Q W " +
                     std::string(3000, '7') + " + 8 [a]\n";
  EXPECT_FALSE(ParseBlktraceText(text, &trace, &err));
  EXPECT_NE(err.message.find("overlong"), std::string::npos);
}

TEST(BlktraceParse, BadDeviceAndTimestampFieldsFail) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseBlktraceText(
      "  80 1 1 0.000001000 697 Q W 100 + 8 [a]\n", &trace, &err));
  EXPECT_NE(err.message.find("device"), std::string::npos);
  EXPECT_FALSE(ParseBlktraceText(
      "  8,0 1 1 notatime 697 Q W 100 + 8 [a]\n", &trace, &err));
  EXPECT_NE(err.message.find("timestamp"), std::string::npos);
}

TEST(BlktraceParse, EmptyInputFails) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseBlktraceText("", &trace, &err));
  EXPECT_FALSE(ParseBlktraceText("\n\n  \n", &trace, &err));
}

// --- MSR CSV parsing ------------------------------------------------------

TEST(MsrCsvParse, CommittedSampleParses) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(
      ParseMsrCsv(ReadFile(DataPath("sample_msr.csv")), &trace, &err))
      << err.Describe();
  EXPECT_EQ(trace.records.size(), 40u);  // header skipped
  EXPECT_EQ(trace.lines_skipped, 1u);
  // Filetime ticks are 100 ns: the second record is 11000 ticks after the
  // first.
  EXPECT_EQ(trace.records[0].when, 0);
  EXPECT_EQ(trace.records[1].when, 11000 * 100);
  EXPECT_EQ(trace.records[0].kind, TraceOpKind::kRead);
  EXPECT_EQ(trace.records[0].offset, 383496192ull);
  EXPECT_EQ(trace.records[0].len, 32768ull);
  // Streams: (hm,1) -> 1, (hm,0) -> 2, (prxy,0) -> 3, by first appearance.
  EXPECT_EQ(trace.records[0].pid, 1);
  EXPECT_EQ(trace.records[5].pid, 2);
  EXPECT_EQ(trace.records[8].pid, 3);
}

TEST(MsrCsvParse, TruncatedAndOverlongLinesFail) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseMsrCsv("128166372003061629,hm,1,Read,4096\n", &trace,
                           &err));
  EXPECT_EQ(err.line, 1u);
  EXPECT_NE(err.message.find("truncated"), std::string::npos);
  std::string overlong = "128166372003061629," + std::string(1000, 'h') +
                         ",1,Read,0,4096,100\n";
  EXPECT_FALSE(ParseMsrCsv(overlong, &trace, &err));
  EXPECT_NE(err.message.find("overlong"), std::string::npos);
}

TEST(MsrCsvParse, UnknownTypeFails) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseMsrCsv("128166372003061629,hm,1,Trim,0,4096,100\n",
                           &trace, &err));
  EXPECT_NE(err.message.find("unknown record type"), std::string::npos);
}

TEST(MsrCsvParse, OutOfOrderTimestampFails) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseMsrCsv(
      "128166372003061629,hm,1,Read,0,4096,100\n"
      "128166372003061628,hm,1,Read,0,4096,100\n",
      &trace, &err));
  EXPECT_EQ(err.line, 2u);
  EXPECT_NE(err.message.find("out-of-order"), std::string::npos);
  EXPECT_TRUE(trace.records.empty());
}

TEST(MsrCsvParse, CrlfAndHeaderTolerated) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(ParseMsrCsv(
      "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\r\n"
      "128166372003061629,hm,1,write,4096,8192,100\r\n",
      &trace, &err))
      << err.Describe();
  ASSERT_EQ(trace.records.size(), 1u);
  EXPECT_EQ(trace.records[0].kind, TraceOpKind::kWrite);
}

TEST(MsrCsvParse, HeaderOnlyOnFirstLine) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(ParseMsrCsv(
      "128166372003061629,hm,1,Read,0,4096,100\n"
      "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime\n",
      &trace, &err));
  EXPECT_EQ(err.line, 2u);
}

// --- format autodetection -------------------------------------------------

TEST(DetectFormat, DistinguishesShapes) {
  EXPECT_EQ(DetectTraceFormat(ReadFile(DataPath("sample_blktrace.txt"))),
            TraceFormat::kBlktrace);
  EXPECT_EQ(DetectTraceFormat(ReadFile(DataPath("sample_msr.csv"))),
            TraceFormat::kMsrCsv);
  EXPECT_EQ(DetectTraceFormat("some random prose, with commas\n"),
            TraceFormat::kBlktrace);  // shape only; the parser rejects it
  EXPECT_EQ(DetectTraceFormat("no separators here\n"), TraceFormat::kAuto);
  EXPECT_EQ(DetectTraceFormat(""), TraceFormat::kAuto);
}

TEST(LoadTraceFile, MissingFileReportsPath) {
  ParsedTrace trace;
  TraceError err;
  EXPECT_FALSE(LoadTraceFile("/nonexistent/trace.txt", TraceFormat::kAuto,
                             &trace, &err));
  EXPECT_NE(err.message.find("/nonexistent/trace.txt"), std::string::npos);
}

// --- reconstruction -------------------------------------------------------

TEST(Reconstruct, MapsStreamsAndPreservesOrder) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(ParseBlktraceText(ReadFile(DataPath("sample_blktrace.txt")),
                                &trace, &err));
  ReconstructOptions opt;
  WorkloadProgram program;
  ReconstructStats stats;
  std::string error;
  ASSERT_TRUE(Reconstruct(trace, opt, &program, &stats, &error)) << error;
  EXPECT_EQ(stats.ops_out, program.ops.size());
  EXPECT_EQ(stats.records_in, trace.records.size());
  EXPECT_EQ(stats.streams, 4);  // 697/1423/1501 on 8,0 + postmark on 8,16
  EXPECT_GT(stats.reads, 0u);
  EXPECT_GT(stats.writes, 0u);
  EXPECT_EQ(stats.fsyncs, 3u);
  EXPECT_LE(program.num_procs, opt.max_procs);
  EXPECT_LE(program.num_files, opt.max_files);
  for (const StressOp& op : program.ops) {
    EXPECT_GE(op.proc, 0);
    EXPECT_LT(op.proc, program.num_procs);
    EXPECT_GE(op.file, 0);
    EXPECT_LT(op.file, program.num_files);
    EXPECT_LE(op.delay, opt.max_delay);
    if (op.kind != StressOpKind::kFsync) {
      EXPECT_LT(op.offset, opt.file_region_bytes);
      EXPECT_LE(op.offset + op.len, opt.file_region_bytes);
      EXPECT_LE(op.len, opt.max_io_bytes);
    }
  }
}

TEST(Reconstruct, IsDeterministic) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(
      ParseMsrCsv(ReadFile(DataPath("sample_msr.csv")), &trace, &err));
  WorkloadProgram a, b;
  std::string error;
  ASSERT_TRUE(Reconstruct(trace, {}, &a, nullptr, &error)) << error;
  ASSERT_TRUE(Reconstruct(trace, {}, &b, nullptr, &error)) << error;
  EXPECT_EQ(a, b);
  EXPECT_EQ(ProgramToJson(a), ProgramToJson(b));
}

TEST(Reconstruct, MaxOpsTruncates) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(
      ParseMsrCsv(ReadFile(DataPath("sample_msr.csv")), &trace, &err));
  ReconstructOptions opt;
  opt.max_ops = 7;
  WorkloadProgram program;
  std::string error;
  ASSERT_TRUE(Reconstruct(trace, opt, &program, nullptr, &error)) << error;
  EXPECT_EQ(program.ops.size(), 7u);
}

TEST(Reconstruct, RejectsEmptyTraceAndBadOptions) {
  WorkloadProgram program;
  std::string error;
  EXPECT_FALSE(Reconstruct(ParsedTrace(), {}, &program, nullptr, &error));
  ParsedTrace trace;
  trace.records.push_back(TraceRecord{});
  trace.records.back().len = 4096;
  ReconstructOptions opt;
  opt.max_procs = 0;
  EXPECT_FALSE(Reconstruct(trace, opt, &program, nullptr, &error));
}

// --- replay ---------------------------------------------------------------

TEST(Replay, RepeatProgramConcatenates) {
  WorkloadProgram p;
  p.num_procs = 2;
  p.num_files = 1;
  p.ops.resize(3);
  EXPECT_EQ(RepeatProgram(p, 1).ops.size(), 3u);
  WorkloadProgram r = RepeatProgram(p, 4);
  EXPECT_EQ(r.ops.size(), 12u);
  EXPECT_EQ(r.num_procs, 2);
}

// Same trace + same seed => byte-identical replay, across runs and across
// schedulers (the determinism contract). This is the library-level half of
// the determinism guarantee; the ctest round-trip covers the CLI half.
TEST(Replay, SameTraceSameSeedIsByteIdentical) {
  ParsedTrace trace;
  TraceError err;
  ASSERT_TRUE(ParseBlktraceText(ReadFile(DataPath("sample_blktrace.txt")),
                                &trace, &err));
  ReconstructOptions rec;
  ReplayOptions opt;
  opt.seed = 42;
  opt.repeat = 2;
  ReplayReport a, b;
  std::string error;
  ASSERT_TRUE(ReplayTrace(trace, rec, opt, &a, &error)) << error;
  ASSERT_TRUE(ReplayTrace(trace, rec, opt, &b, &error)) << error;
  ASSERT_EQ(a.per_sched.size(), std::size(kAllSchedKinds));
  ASSERT_EQ(b.per_sched.size(), a.per_sched.size());
  for (size_t i = 0; i < a.per_sched.size(); ++i) {
    EXPECT_TRUE(a.per_sched[i].all_ops_completed)
        << SchedName(a.per_sched[i].sched);
    EXPECT_EQ(a.per_sched[i].fingerprint, b.per_sched[i].fingerprint);
    EXPECT_EQ(a.per_sched[i].ops_done_at, b.per_sched[i].ops_done_at);
    EXPECT_EQ(a.per_sched[i].submitted, b.per_sched[i].submitted);
    // Content is schedule-independent: every scheduler agrees.
    EXPECT_EQ(a.per_sched[i].fingerprint, a.per_sched[0].fingerprint)
        << SchedName(a.per_sched[i].sched);
  }
}

// Tier-1 gate: both committed sample traces replay under all 8 schedulers
// with the full oracle battery (completion, conservation, spans, and the
// cross-scheduler content differential) finding nothing.
TEST(Replay, CommittedSamplesPassAllOraclesUnderEveryScheduler) {
  for (const char* name : {"sample_blktrace.txt", "sample_msr.csv"}) {
    ParsedTrace trace;
    TraceError terr;
    ASSERT_TRUE(LoadTraceFile(DataPath(name), TraceFormat::kAuto, &trace,
                              &terr))
        << name << ": " << terr.Describe();
    WorkloadProgram program;
    std::string error;
    ASSERT_TRUE(Reconstruct(trace, {}, &program, nullptr, &error)) << error;
    for (SchedKind sched : kAllSchedKinds) {
      Scenario scenario;
      scenario.seed = 7;
      scenario.stack.sched = sched;
      scenario.program = program;
      auto failures = EvaluateScenario(scenario);
      EXPECT_TRUE(failures.empty())
          << name << " under " << SchedName(sched) << ": "
          << DescribeFailures(failures);
    }
  }
}

// --- trace -> repro bridge ------------------------------------------------

TEST(TraceRepro, CleanSliceRecordsCleanOracle) {
  ParsedTrace trace;
  TraceError terr;
  ASSERT_TRUE(LoadTraceFile(DataPath("sample_msr.csv"), TraceFormat::kAuto,
                            &trace, &terr));
  TraceReproOptions opt;
  StressFailure repro;
  std::string error;
  ASSERT_TRUE(TraceToRepro(trace, opt, &repro, &error)) << error;
  EXPECT_EQ(repro.oracle, "clean");
  EXPECT_FALSE(repro.scenario.program.ops.empty());
  // The repro JSON round-trips and replays as clean.
  StressFailure parsed;
  ASSERT_TRUE(ReproFromJson(ReproToJson(repro), &parsed));
  EXPECT_EQ(parsed.oracle, "clean");
  EXPECT_EQ(parsed.scenario, repro.scenario);
}

TEST(TraceRepro, NegativeControlRecordsRealOracleAndMinimizes) {
  ParsedTrace trace;
  TraceError terr;
  ASSERT_TRUE(LoadTraceFile(DataPath("sample_blktrace.txt"),
                            TraceFormat::kAuto, &trace, &terr));
  TraceReproOptions opt;
  opt.stack.control = NegativeControl::kDropCompletion;
  opt.oracle.run_content_differential = false;  // keep the test fast
  opt.max_shrink_evals = 40;
  opt.reconstruct.max_ops = 24;
  StressFailure repro;
  std::string error;
  ASSERT_TRUE(TraceToRepro(trace, opt, &repro, &error)) << error;
  EXPECT_NE(repro.oracle, "clean");
  EXPECT_FALSE(repro.detail.empty());
  // Minimization kept the failure and did not grow the program.
  EXPECT_LE(repro.scenario.program.ops.size(), 24u);
  auto failures = EvaluateScenario(repro.scenario, opt.oracle);
  ASSERT_FALSE(failures.empty());
  EXPECT_EQ(failures.front().oracle, repro.oracle);
  EXPECT_EQ(failures.front().detail, repro.detail);
}

}  // namespace
}  // namespace ingest
}  // namespace splitio
