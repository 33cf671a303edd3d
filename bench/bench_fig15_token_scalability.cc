// Figure 15 — Split-Token scalability with the number of B threads.
//
// A reads sequentially; B's thread count sweeps upward while all B threads
// share one token account (32-core machine, as in the paper's CloudLab
// node). For disk-bound B activities A's throughput is flat. For
// memory-bound B activities (and a pure spin loop issuing no I/O at all)
// A only suffers once B's thread count overwhelms the CPUs — the I/O
// scheduler is innocent; a CPU scheduler is the missing piece.
#include "bench/common/flags.h"
#include "bench/common/isolation.h"

namespace splitio {
namespace {

double RunSpin(int threads) {
  StackCounterScope scope(std::string(SchedName(SchedKind::kSplitToken)) +
                          "/spin/t" + std::to_string(threads));
  Simulator sim;
  BundleOptions opt;
  opt.cores = 32;
  Bundle b = MakeBundle(SchedKind::kSplitToken, std::move(opt));
  b.tokens->SetAccountLimit(1, 1.0 * 1024 * 1024);
  Process* a = b.stack->NewProcess("A");
  int64_t ino = b.stack->fs().CreatePreallocated("/a", 8ULL << 30);
  WorkloadStats a_stats;
  constexpr Nanos kEnd = Sec(20);
  auto reader = [&]() -> Task<void> {
    co_await SequentialReader(b.stack->kernel(), *a, ino, 8ULL << 30,
                              256 * 1024, kEnd, &a_stats);
  };
  auto spinner = [&]() -> Task<void> { co_await SpinLoop(*b.cpu, kEnd); };
  sim.Spawn(reader());
  for (int t = 0; t < threads; ++t) {
    sim.Spawn(spinner());
  }
  sim.Run(kEnd);
  return a_stats.MBps(0, kEnd);
}

double RunB(BWorkload w, int threads) {
  IsolationParams p;
  p.sched = SchedKind::kSplitToken;
  p.b_workload = w;
  p.b_rate = 1.0 * 1024 * 1024;
  p.b_threads = threads;
  p.duration = Sec(20);
  IsolationParams* pp = &p;
  (void)pp;
  StackCounterScope scope(std::string(SchedName(p.sched)) + "/" +
                          BWorkloadName(w) + "/t" + std::to_string(threads));
  // 32 cores, like the paper's CloudLab node.
  Simulator sim;
  BundleOptions opt;
  opt.cores = 32;
  Bundle b = MakeBundle(p.sched, std::move(opt));
  b.tokens->SetAccountLimit(1, p.b_rate);
  Process* a = b.stack->NewProcess("A");
  int64_t a_ino = b.stack->fs().CreatePreallocated("/a", 8ULL << 30);
  WorkloadStats a_stats;
  WorkloadStats b_stats;
  auto reader = [&]() -> Task<void> {
    co_await SequentialReader(b.stack->kernel(), *a, a_ino, 8ULL << 30,
                              256 * 1024, p.duration, &a_stats);
  };
  sim.Spawn(reader());
  int64_t b_read_ino = -1;
  if (w == BWorkload::kReadSeq) {
    b_read_ino = b.stack->fs().CreatePreallocated("/bsrc", 10ULL << 30);
  }
  auto b_thread = [&](int tid) -> Task<void> {
    Process* bp = b.stack->NewProcess("B" + std::to_string(tid));
    bp->set_account(1);
    OsKernel& kernel = b.stack->kernel();
    switch (w) {
      case BWorkload::kReadSeq:
        co_await SequentialReader(kernel, *bp, b_read_ino, 10ULL << 30,
                                  256 * 1024, p.duration, &b_stats);
        break;
      case BWorkload::kReadMem: {
        int64_t ino = b.stack->fs().CreatePreallocated(
            "/bm" + std::to_string(tid), 8 << 20);
        co_await MemReader(kernel, *bp, ino, 8 << 20, 1 << 20, p.duration,
                           &b_stats);
        break;
      }
      case BWorkload::kWriteMem: {
        int64_t ino =
            co_await kernel.Creat(*bp, "/bw" + std::to_string(tid));
        co_await MemWriter(kernel, *bp, ino, 8 << 20, 1 << 20, p.duration,
                           &b_stats);
        break;
      }
      default:
        break;
    }
  };
  for (int t = 0; t < threads; ++t) {
    sim.Spawn(b_thread(t));
  }
  sim.Run(p.duration);
  return a_stats.MBps(0, p.duration);
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 15: A's throughput vs number of B threads (32 cores, "
             "B shares one 1 MB/s account)");
  std::printf("%9s %12s %12s %12s %12s\n", "B-threads", "read-seq",
              "read-mem", "write-mem", "spin-loop");
  for (int threads : {1, 16, 64, 128, 256, 512}) {
    double seq = RunB(BWorkload::kReadSeq, threads);
    double rmem = RunB(BWorkload::kReadMem, threads);
    double wmem = RunB(BWorkload::kWriteMem, threads);
    double spin = RunSpin(threads);
    std::printf("%9d %12.1f %12.1f %12.1f %12.1f\n", threads, seq, rmem,
                wmem, spin);
  }
  std::printf("\n(Paper: disk activities flat; mem/spin activities depress A "
              "only past ~128 threads — CPU starvation, not I/O "
              "scheduling.)\n");
  return 0;
}
