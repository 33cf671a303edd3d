// Example: solving the database "fsync freeze" with Split-Deadline.
//
// A WalDb (SQLite-like) instance runs random-row update transactions while
// its checkpointer periodically fsyncs the whole table. With the stock
// block-level deadline scheduler, checkpoint fsyncs freeze transactions for
// hundreds of milliseconds; with Split-Deadline the cost is spread with
// async writeback and transaction tails stay near the log's deadline.
//
//   ./build/examples/example_database_fsync
#include <cstdio>
#include <memory>

#include "src/apps/waldb.h"
#include "src/block/block_deadline.h"
#include "src/core/storage_stack.h"
#include "src/sched/composed.h"
#include "src/sim/simulator.h"

using namespace splitio;

namespace {

void RunOnce(bool use_split) {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  std::unique_ptr<StorageStack> stack;
  if (use_split) {
    SplitDeadlineConfig sd;
    sd.own_writeback = true;           // scheduler controls writeback
    config.cache.writeback_daemon = false;
    stack = std::make_unique<StorageStack>(
        config, &cpu,
        std::make_unique<ComposedScheduler>(SplitDeadlineSpec(sd)), nullptr);
  } else {
    stack = std::make_unique<StorageStack>(
        config, &cpu, nullptr, std::make_unique<BlockDeadlineElevator>());
  }
  stack->Start();

  Process* worker = stack->NewProcess("db-worker");
  worker->set_fsync_deadline(Msec(100));      // WAL appends: tight
  Process* checkpointer = stack->NewProcess("db-checkpointer");
  checkpointer->set_fsync_deadline(Sec(10));  // table flush: loose

  WalDb::Config db_config;
  db_config.checkpoint_threshold_rows = 1000;
  WalDb db(stack.get(), worker, checkpointer, db_config);

  constexpr Nanos kEnd = Sec(30);
  auto opener = [&]() -> Task<void> {
    co_await db.Open();
    Simulator::current().Spawn(db.RunUpdates(kEnd));
    Simulator::current().Spawn(db.RunCheckpointer(kEnd));
  };
  sim.Spawn(opener());
  sim.Run(kEnd);

  std::printf("%-16s txns=%6llu checkpoints=%llu  p50=%5.1fms  p99=%6.1fms  "
              "max=%7.1fms\n",
              use_split ? "split-deadline" : "block-deadline",
              static_cast<unsigned long long>(db.txns()),
              static_cast<unsigned long long>(db.checkpoints()),
              ToMillis(db.txn_latency().Percentile(50)),
              ToMillis(db.txn_latency().Percentile(99)),
              ToMillis(db.txn_latency().Max()));
}

}  // namespace

int main() {
  std::printf("WalDb transaction latencies, 30 simulated seconds on HDD:\n");
  RunOnce(false);
  RunOnce(true);
  std::printf("\nThe freeze lives in the extreme tail: under block-deadline "
              "a transaction unlucky enough\nto hit a checkpoint waits for "
              "the whole flush; split-deadline spreads that cost (paying\n"
              "a modest, predictable median).\n");
  return 0;
}
