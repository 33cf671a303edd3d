// Example: cross-layer I/O attribution with the trace recorder.
//
// Two tenants and the kernel's own proxy tasks generate I/O; the IoTracer
// records every completed block request with its cause set. The per-cause
// summary shows how split-level tagging attributes even journal commits and
// writeback to the applications that caused them — the observability the
// block layer alone cannot provide.
//
//   ./build/examples/example_io_tracing  (also writes /tmp/splitio_trace.csv)
#include <cstdio>
#include <fstream>
#include <memory>

#include "src/core/storage_stack.h"
#include "src/device/trace.h"
#include "src/sched/composed.h"
#include "src/sim/simulator.h"
#include "src/workload/workloads.h"

using namespace splitio;

int main() {
  Simulator sim;
  StackConfig config;
  CpuModel cpu(8);
  auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  sched->SetAccountLimit(1, 8.0 * 1024 * 1024);
  StorageStack stack(config, &cpu, std::move(sched), nullptr);
  IoTracer tracer;
  tracer.Attach(&stack.block());
  stack.Start();

  Process* alice = stack.NewProcess("alice");
  Process* bob = stack.NewProcess("bob");
  bob->set_account(1);

  constexpr Nanos kEnd = Sec(15);
  WorkloadStats alice_stats;
  WorkloadStats bob_stats;
  auto alice_work = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*alice, "/alice-log");
    co_await AppendFsyncLoop(stack.kernel(), *alice, ino, 4096, kEnd,
                             &alice_stats);
  };
  auto bob_work = [&]() -> Task<void> {
    int64_t ino = co_await stack.kernel().Creat(*bob, "/bob-data");
    co_await SequentialWriter(stack.kernel(), *bob, ino, 1 << 20,
                              kEnd - Sec(5), &bob_stats);
    co_await stack.kernel().Fsync(*bob, ino);  // push the buffers to disk
  };
  sim.Spawn(alice_work());
  sim.Spawn(bob_work());
  sim.Run(kEnd);

  std::printf("Recorded %zu block-level completions; workload sequentiality "
              "at the device: %.0f%%\n\n",
              tracer.entries().size(), 100 * tracer.SequentialFraction());
  std::printf("%8s %10s %12s %14s\n", "cause", "requests", "MB", "disk-ms");
  for (const auto& [pid, pc] : tracer.SummarizeByCause()) {
    const char* who = pid == alice->pid() ? "alice"
                      : pid == bob->pid() ? "bob"
                                          : "kernel";
    std::printf("%8s %10llu %12.1f %14.1f\n", who,
                static_cast<unsigned long long>(pc.requests),
                pc.bytes / 1048576.0, ToMillis(pc.device_time));
  }
  std::printf("\nNote: journal commits and writeback I/O are attributed to "
              "alice/bob, not to the kernel tasks that submitted them.\n");

  std::ofstream csv("/tmp/splitio_trace.csv");
  tracer.WriteCsv(csv);
  std::printf("Full trace: /tmp/splitio_trace.csv\n");
  return 0;
}
