// Ablation — Split-Deadline writeback ownership (§7.1.2).
//
// The microbenchmark version of Figure 19's three-way comparison: the same
// small-fsync vs big-buffered-writer contention, with Split-Deadline run
// (a) owning writeback entirely (kernel daemon off) and (b) leaving pdflush
// on but throttling write syscalls at a lower dirty cap.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct Outcome {
  double p50_ms;
  double p99_ms;
  double max_ms;
  double writer_mbps;
};

Outcome Run(bool own_writeback) {
  Simulator sim;
  BundleOptions opt;
  opt.sched.split_deadline.own_writeback = own_writeback;
  opt.sched.split_deadline.pdflush_dirty_margin_bytes = 32ULL << 20;
  opt.stack.cache.writeback_daemon = !own_writeback;
  Bundle b = MakeBundle(SchedKind::kSplitDeadline, std::move(opt));
  Process* a = b.stack->NewProcess("A");
  a->set_fsync_deadline(Msec(50));
  Process* bp = b.stack->NewProcess("B");
  WorkloadStats a_stats;
  WorkloadStats b_stats;
  constexpr Nanos kEnd = Sec(30);
  auto log_appender = [&]() -> Task<void> {
    int64_t ino = co_await b.stack->kernel().Creat(*a, "/log");
    co_await AppendFsyncLoop(b.stack->kernel(), *a, ino, 4096, kEnd,
                             &a_stats);
  };
  auto buffered_writer = [&]() -> Task<void> {
    int64_t ino = co_await b.stack->kernel().Creat(*bp, "/big");
    co_await SequentialWriter(b.stack->kernel(), *bp, ino, 1 << 20, kEnd,
                              &b_stats);
  };
  sim.Spawn(log_appender());
  sim.Spawn(buffered_writer());
  sim.Run(kEnd);
  Outcome out;
  out.p50_ms = ToMillis(a_stats.latency.Percentile(50));
  out.p99_ms = ToMillis(a_stats.latency.Percentile(99));
  out.max_ms = ToMillis(a_stats.latency.Max());
  out.writer_mbps = b_stats.MBps(0, kEnd);
  return out;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Ablation: Split-Deadline owned writeback vs pdflush "
             "(A: 4KB append+fsync ddl 50ms; B: buffered streamer)");
  std::printf("%16s %10s %10s %10s %14s\n", "writeback", "A-p50(ms)",
              "A-p99(ms)", "A-max(ms)", "B(MB/s)");
  Outcome pdflush = Run(false);
  std::printf("%16s %10.1f %10.1f %10.1f %14.1f\n", "split-pdflush",
              pdflush.p50_ms, pdflush.p99_ms, pdflush.max_ms,
              pdflush.writer_mbps);
  Outcome owned = Run(true);
  std::printf("%16s %10.1f %10.1f %10.1f %14.1f\n", "scheduler-owned",
              owned.p50_ms, owned.p99_ms, owned.max_ms, owned.writer_mbps);
  std::printf("\n(Owned writeback defers flushing while deadlines are at "
              "risk, trimming A's tail without starving B.)\n");
  return 0;
}
