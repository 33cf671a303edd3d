// Quickstart: assemble one storage stack with the Split-Token scheduler,
// run two processes with different resource limits, and observe the
// cross-layer accounting in action.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/example_quickstart
#include <cstdio>
#include <memory>

#include "src/core/storage_stack.h"
#include "src/sched/composed.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

using namespace splitio;

int main() {
  // Everything happens inside one deterministic simulation.
  Simulator sim;

  // A storage stack: HDD model + block layer + page cache + ext4-like
  // journaling file system + the Split-Token scheduler attached at all
  // three levels (system call, memory, block).
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  ComposedScheduler* token = sched.get();
  token->SetAccountLimit(/*account=*/1, /*bytes_per_sec=*/5.0 * 1024 * 1024);
  StorageStack stack(config, &cpu, std::move(sched), /*legacy=*/nullptr);
  stack.Start();

  // Two tenants: "fast" is unthrottled; "slow" is capped at 5 MB/s of
  // normalized (sequential-equivalent) I/O.
  Process* fast = stack.NewProcess("fast");
  Process* slow = stack.NewProcess("slow");
  slow->set_account(1);

  WorkloadStats fast_stats;
  WorkloadStats slow_stats;
  constexpr Nanos kEnd = Sec(30);

  int64_t big = stack.fs().CreatePreallocated("/dataset", 4ULL << 30);

  auto fast_reader = [&]() -> Task<void> {
    co_await SequentialReader(stack.kernel(), *fast, big, 4ULL << 30,
                              256 * 1024, kEnd, &fast_stats);
  };
  auto slow_writer = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*slow, "/slow-file");
    co_await SequentialWriter(stack.kernel(), *slow, ino, 1 << 20, kEnd,
                              &slow_stats);
    co_await stack.kernel().Fsync(*slow, ino);
  };
  sim.Spawn(fast_reader());
  sim.Spawn(slow_writer());
  sim.Run(kEnd);

  std::printf("fast reader : %7.1f MB/s (unthrottled)\n",
              fast_stats.MBps(0, kEnd));
  std::printf("slow writer : %7.1f MB/s (capped at 5 MB/s normalized)\n",
              slow_stats.MBps(0, kEnd));
  std::printf("device      : %7.1f MB written, %.1f MB read\n",
              stack.device().total_bytes_written() / 1048576.0,
              stack.device().total_bytes_read() / 1048576.0);
  std::printf("account 1 balance: %.0f bytes\n", token->account_balance(1));
  return 0;
}
