// Figure 12 — Fsync latency isolation, Split-Deadline vs Block-Deadline,
// on both the HDD and SSD models (Table 3 deadline settings).
//
// Thread A appends 4 KB + fsync (database log); thread B writes 1024
// random blocks then fsyncs (database checkpoint). B starts after a quiet
// period. Block-Deadline lets B's flushes capture A's fsyncs (journal
// ordering); Split-Deadline spreads B's cost with async writeback and keeps
// A near its target.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Outcome {
  double a_p50_ms, a_p99_ms, a_max_ms;
  double b_p50_ms;
  size_t a_ops;
};

Outcome Run(SchedKind kind, bool ssd) {
  StackCounterScope scope(std::string(SchedName(kind)) +
                          (ssd ? "/ssd" : "/hdd"));
  Simulator sim;
  BundleOptions opt;
  if (ssd) {
    opt.stack.device = StackConfig::DeviceKind::kSsd;
  }
  if (kind == SchedKind::kSplitDeadline) {
    opt.sched.split_deadline.own_writeback = true;
  } else {
    opt.sched.block_deadline.read_expiry = ssd ? Msec(10) : Msec(20);
    opt.sched.block_deadline.write_expiry = ssd ? Msec(10) : Msec(20);
  }
  Bundle b = MakeBundle(kind, std::move(opt));
  Process* a = b.stack->NewProcess("A");
  Process* bp = b.stack->NewProcess("B");
  // Table 3: fsync deadlines — A short, B long (B's fsync moves much data).
  a->set_fsync_deadline(ssd ? Msec(25) : Msec(100));
  bp->set_fsync_deadline(ssd ? Msec(400) : Msec(800));

  WorkloadStats a_stats;
  WorkloadStats b_stats;
  constexpr Nanos kEnd = Sec(30);
  auto log_appender = [&]() -> Task<void> {
    int64_t ino = co_await b.stack->kernel().Creat(*a, "/log");
    co_await AppendFsyncLoop(b.stack->kernel(), *a, ino, 4096, kEnd,
                             &a_stats);
  };
  auto checkpointer = [&]() -> Task<void> {
    int64_t ino = co_await b.stack->kernel().Creat(*bp, "/db");
    co_await b.stack->kernel().Write(*bp, ino, 0, 64 << 20);
    co_await b.stack->kernel().Fsync(*bp, ino);
    co_await Delay(Sec(5));  // quiet period: A alone
    // 1024 random 4KB blocks + fsync, repeatedly (the shaded region).
    co_await BigWriteFsyncLoop(b.stack->kernel(), *bp, ino, 64 << 20,
                               1024 * 4096, 4096, Msec(500), 5, kEnd,
                               &b_stats);
  };
  sim.Spawn(log_appender());
  sim.Spawn(checkpointer());
  sim.Run(kEnd);
  Outcome out;
  out.a_p50_ms = ToMillis(a_stats.latency.Percentile(50));
  out.a_p99_ms = ToMillis(a_stats.latency.Percentile(99));
  out.a_max_ms = ToMillis(a_stats.latency.Max());
  out.b_p50_ms = ToMillis(b_stats.latency.Percentile(50));
  out.a_ops = a_stats.latency.count();
  return out;
}

void Section(const char* device, bool ssd) {
  std::printf("\n-- %s --\n", device);
  std::printf("%16s %10s %10s %10s %12s %8s\n", "scheduler", "A-p50(ms)",
              "A-p99(ms)", "A-max(ms)", "B-p50(ms)", "A-ops");
  for (SchedKind kind :
       {SchedKind::kBlockDeadline, SchedKind::kSplitDeadline}) {
    Outcome o = Run(kind, ssd);
    std::printf("%16s %10.1f %10.1f %10.1f %12.1f %8zu\n", SchedName(kind),
                o.a_p50_ms, o.a_p99_ms, o.a_max_ms, o.b_p50_ms, o.a_ops);
  }
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 12: fsync latency isolation (Table 3 deadlines)");
  Section("HDD (A deadline 100 ms, B 800 ms)", false);
  Section("SSD (A deadline 25 ms, B 400 ms)", true);
  std::printf("\n(Paper: Block-Deadline lets A's latency blow up by an order "
              "of magnitude while B checkpoints; Split-Deadline keeps A near "
              "its deadline.)\n");
  return 0;
}
