// Crash-consistency sweep — the fault subsystem's headline experiment.
//
// Runs the WAL + checkpoint workload with the device's volatile write cache
// enabled on every scheduler (split and block-level baselines) on ext4 and
// XFS, snapshots crash images at randomized times plus adversarially at each
// journal-record completion, and checks the ordered-mode invariants
// (journal prefix, committed-tx data, fsync durability, WAL prefix) on each
// image. A final run re-checks with an injected jbd2 bug (commit record
// written without the pre-record flush) to demonstrate the checker's teeth:
// zero violations in correct configurations, nonzero for the bug.
#include "bench/common/flags.h"
#include <cstdio>

#include "bench/common/report.h"
#include "src/fault/crash_sweep.h"

namespace splitio {
namespace {

int RunAll() {
  const SchedKind kScheds[] = {
      SchedKind::kNoop,          SchedKind::kCfq,
      SchedKind::kBlockDeadline, SchedKind::kAfq,
      SchedKind::kSplitDeadline, SchedKind::kSplitToken};

  std::printf(
      "\n=== Crash consistency: ordered-mode invariants at crash points "
      "===\n");
  std::printf("%-16s %-5s %-7s %7s %6s %9s %7s %8s %7s\n", "sched", "fs",
              "faults", "points", "viol", "replayed", "acks", "flushes",
              "ok");

  uint64_t crash_points = 0;
  uint64_t violations = 0;
  uint64_t replayed = 0;
  uint64_t acks = 0;
  uint64_t flushes = 0;
  uint64_t faults = 0;

  auto run_one = [&](SchedKind sched, bool xfs, bool inject) {
    CrashSweepOptions options;
    options.sched = sched;
    options.xfs = xfs;
    options.horizon = Sec(8);
    options.crash_points = 8;
    options.record_crash_points = 16;
    options.seed = DeriveSeed(1);
    options.inject_faults = inject;
    CrashSweepResult result = RunCrashSweep(options);
    std::printf("%-16s %-5s %-7s %7llu %6llu %9llu %7llu %8llu %7s\n",
                SchedName(sched), xfs ? "xfs" : "ext4",
                inject ? "on" : "off",
                static_cast<unsigned long long>(result.crash_points),
                static_cast<unsigned long long>(result.total_violations),
                static_cast<unsigned long long>(result.replayed_commits),
                static_cast<unsigned long long>(result.checked_acks),
                static_cast<unsigned long long>(result.device_flushes),
                result.ok() ? "yes" : "NO");
    if (!result.ok()) {
      std::printf("  first violation: %s\n", result.FirstViolation().c_str());
    }
    crash_points += result.crash_points;
    violations += result.total_violations;
    replayed += result.replayed_commits;
    acks += result.checked_acks;
    flushes += result.device_flushes;
    faults += result.faults_injected;
    return result.ok();
  };

  bool all_ok = true;
  for (bool xfs : {false, true}) {
    for (SchedKind sched : kScheds) {
      all_ok &= run_one(sched, xfs, /*inject=*/false);
    }
  }
  // Transient EIO + latency spikes on top of crash exploration: successful
  // fsyncs must still be honest.
  all_ok &= run_one(SchedKind::kSplitToken, /*xfs=*/false, /*inject=*/true);
  all_ok &= run_one(SchedKind::kSplitDeadline, /*xfs=*/true, /*inject=*/true);

  // Negative control: the injected ordering bug must be caught.
  CrashSweepOptions buggy;
  buggy.sched = SchedKind::kSplitDeadline;
  buggy.horizon = Sec(8);
  buggy.record_crash_points = 32;
  buggy.seed = DeriveSeed(1);
  buggy.buggy_skip_preflush = true;
  CrashSweepResult bug = RunCrashSweep(buggy);
  std::printf(
      "\nnegative control (jbd2 commit without pre-record flush): "
      "%llu violation(s) — %s\n",
      static_cast<unsigned long long>(bug.total_violations),
      bug.total_violations > 0 ? "caught" : "MISSED");

  ReportMetric("crash_points", static_cast<double>(crash_points));
  ReportMetric("violations", static_cast<double>(violations));
  ReportMetric("replayed_commits", static_cast<double>(replayed));
  ReportMetric("checked_acks", static_cast<double>(acks));
  ReportMetric("device_flushes", static_cast<double>(flushes));
  ReportMetric("faults_injected", static_cast<double>(faults));
  ReportMetric("buggy_violations_caught",
               static_cast<double>(bug.total_violations));
  return all_ok && bug.total_violations > 0 ? 0 : 1;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  return splitio::RunAll();
}
