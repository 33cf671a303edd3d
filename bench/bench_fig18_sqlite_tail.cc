// Figure 18 — WalDb (SQLite-like) transaction tail latencies.
//
// Random-row updates on an HDD; the checkpoint threshold (dirty buffers
// before the checkpointer fsyncs the table) sweeps along the x-axis. Under
// Block-Deadline, larger thresholds make checkpoints rarer but *each one
// worse*: the 99th percentile falls while the 99.9th keeps rising. Under
// Split-Deadline the checkpoint is spread with async writeback and both
// tails stay low.
#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/apps/waldb.h"

namespace splitio {
namespace {

struct Row {
  double p99_ms;
  double p999_ms;
  double max_ms;
  uint64_t txns;
};

Row Run(SchedKind kind, uint64_t threshold) {
  StackCounterScope scope(std::string(SchedName(kind)) + "/thr" +
                          std::to_string(threshold));
  Simulator sim;
  BundleOptions opt;
  // The checkpoint threshold is the policy under test: keep the kernel
  // writeback daemon from pre-cleaning the table (very long expiry).
  opt.stack.cache.dirty_expire = Sec(600);
  opt.stack.cache.writeback_interval = Sec(60);
  if (kind == SchedKind::kSplitDeadline) {
    opt.sched.split_deadline.own_writeback = true;
    opt.stack.cache.writeback_daemon = false;
  }
  Bundle b = MakeBundle(kind, std::move(opt));
  Process* worker = b.stack->NewProcess("sqlite-worker");
  Process* checkpointer = b.stack->NewProcess("sqlite-checkpointer");
  worker->set_fsync_deadline(Msec(100));       // WAL appends + reads: tight
  checkpointer->set_fsync_deadline(Sec(10));   // database file: loose
  WalDb::Config config;
  config.checkpoint_threshold_rows = threshold;
  WalDb db(b.stack.get(), worker, checkpointer, config);
  constexpr Nanos kEnd = Sec(120);
  auto opener = [&]() -> Task<void> {
    co_await db.Open();
    Simulator::current().Spawn(db.RunUpdates(kEnd));
    Simulator::current().Spawn(db.RunCheckpointer(kEnd));
  };
  sim.Spawn(opener());
  sim.Run(kEnd);
  Row row;
  row.p99_ms = ToMillis(db.txn_latency().Percentile(99));
  row.p999_ms = ToMillis(db.txn_latency().Percentile(99.9));
  row.max_ms = ToMillis(db.txn_latency().Max());
  row.txns = db.txns();
  return row;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 18: WalDb transaction tail latency vs checkpoint "
             "threshold (HDD)");
  std::printf("%10s | %10s %10s %10s | %10s %10s %10s\n", "threshold",
              "Blk-p99", "Blk-p99.9", "Blk-max", "Spl-p99", "Spl-p99.9",
              "Spl-max");
  for (uint64_t threshold :
       {100ULL, 250ULL, 500ULL, 1000ULL, 2000ULL, 4000ULL}) {
    Row blk = Run(SchedKind::kBlockDeadline, threshold);
    Row spl = Run(SchedKind::kSplitDeadline, threshold);
    std::printf("%10llu | %10.1f %10.1f %10.1f | %10.1f %10.1f %10.1f\n",
                static_cast<unsigned long long>(threshold), blk.p99_ms,
                blk.p999_ms, blk.max_ms, spl.p99_ms, spl.p999_ms, spl.max_ms);
    if (threshold == 1000) {
      ReportMetric("p99_ms_block_deadline_1k", blk.p99_ms);
      ReportMetric("p99_ms_split_deadline_1k", spl.p99_ms);
    }
  }
  std::printf("\n(Paper: Block-Deadline's extreme tail rises with the "
              "threshold — rarer but costlier checkpoints — while its 99th "
              "falls; Split-Deadline stays flat, ~4x lower at 1K buffers. "
              "Our transaction rate is lower than the paper's, so the same "
              "effect appears one quantile later: watch p99.9/max.)\n");
  return 0;
}
