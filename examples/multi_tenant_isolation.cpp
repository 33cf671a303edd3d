// Example: multi-tenant performance isolation with Split-Token.
//
// Three tenants share one machine: a latency-sensitive reader (unthrottled),
// a batch job capped at 20 MB/s, and a "noisy neighbour" capped at 2 MB/s
// that does hostile random I/O. Split-level accounting normalizes the
// neighbour's random writes to their true device cost, so the cap actually
// protects the reader.
//
//   ./build/examples/example_multi_tenant_isolation
#include <cstdio>
#include <memory>

#include "src/core/storage_stack.h"
#include "src/sched/composed.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

using namespace splitio;

int main() {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  sched->SetAccountLimit(/*batch=*/1, 20.0 * 1024 * 1024);
  sched->SetAccountLimit(/*noisy=*/2, 2.0 * 1024 * 1024);
  StorageStack stack(config, &cpu, std::move(sched), nullptr);
  stack.Start();

  Process* reader = stack.NewProcess("latency-sensitive");
  Process* batch = stack.NewProcess("batch-job");
  batch->set_account(1);
  Process* noisy = stack.NewProcess("noisy-neighbour");
  noisy->set_account(2);

  int64_t dataset = stack.fs().CreatePreallocated("/dataset", 8ULL << 30);

  WorkloadStats reader_stats;
  WorkloadStats batch_stats;
  WorkloadStats noisy_stats;
  constexpr Nanos kEnd = Sec(30);

  auto reader_task = [&]() -> Task<void> {
    co_await SequentialReader(stack.kernel(), *reader, dataset, 8ULL << 30,
                              256 * 1024, kEnd, &reader_stats);
  };
  auto batch_task = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*batch, "/batch-out");
    co_await SequentialWriter(stack.kernel(), *batch, ino, 1 << 20, kEnd,
                              &batch_stats);
  };
  auto noisy_task = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*noisy, "/noise");
    // Hostile pattern: scattered 4 KB writes over 2 GB. Cheap at the
    // system-call level, brutal at the device — exactly what byte-based
    // throttles miss.
    co_await RandomWriter(stack.kernel(), *noisy, ino, 2ULL << 30, 4096, 99,
                          kEnd, &noisy_stats);
  };
  sim.Spawn(reader_task());
  sim.Spawn(batch_task());
  sim.Spawn(noisy_task());
  sim.Run(kEnd);

  std::printf("latency-sensitive reader : %7.1f MB/s (unthrottled)\n",
              reader_stats.MBps(0, kEnd));
  std::printf("batch job (cap 20 MB/s)  : %7.1f MB/s\n",
              batch_stats.MBps(0, kEnd));
  std::printf("noisy neighbour (cap 2)  : %7.2f MB/s of random 4K writes\n",
              noisy_stats.MBps(0, kEnd));
  std::printf("\nThe noisy tenant's random writes are charged at their "
              "normalized (seek-inclusive) cost,\nso a 2 MB/s cap admits "
              "only a trickle of them and the reader keeps its "
              "bandwidth.\n");
  return 0;
}
