// Extension — split scheduling on a copy-on-write file system.
//
// The paper generalizes beyond journaling (§2.3.4, §6): COW file systems
// impose their own ordering (checkpoints) and have their own proxy (the
// garbage collector). This bench shows (a) Split-Token isolation holds on
// the COW model, and (b) GC proxy tagging matters: with an untagged
// collector, a tenant whose churn generates GC work escapes its bill and
// the victim pays — the COW analogue of Figure 17.
#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/fs/cowfs.h"

namespace splitio {
namespace {

struct Pieces {
  std::unique_ptr<HddModel> device;
  std::unique_ptr<ComposedScheduler> sched;
  std::unique_ptr<BlockLayer> block;
  std::unique_ptr<PageCache> cache;
  std::unique_ptr<Process> wb, ckpt, gc;
  std::unique_ptr<CowFsSim> fs;
  std::unique_ptr<CpuModel> cpu;
  std::unique_ptr<OsKernel> kernel;
};

Pieces MakeCowStack(bool tag_gc, double b_rate) {
  Pieces p;
  p.device = std::make_unique<HddModel>();
  p.sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
  p.sched->SetAccountLimit(1, b_rate);
  p.block = std::make_unique<BlockLayer>(p.device.get(), p.sched.get());
  p.cache = std::make_unique<PageCache>();
  p.wb = std::make_unique<Process>(9001, "writeback");
  p.ckpt = std::make_unique<Process>(9002, "cow-checkpoint");
  p.gc = std::make_unique<Process>(9003, "cow-gc");
  CowConfig cow;
  cow.total_segments = 48;    // 96 MB log: B's churn forces collection
  cow.segment_pages = 512;    // 2 MB segments
  cow.gc_threshold = 0.4;
  cow.tag_gc_proxy = tag_gc;
  p.fs = std::make_unique<CowFsSim>(p.cache.get(), p.block.get(), p.wb.get(),
                                    p.ckpt.get(), p.gc.get(),
                                    FsBase::Layout(), cow);
  p.cpu = std::make_unique<CpuModel>(8);
  p.kernel = std::make_unique<OsKernel>(p.fs.get(), p.cache.get(),
                                        p.cpu.get(), p.sched.get(),
                                        OsKernel::Config());
  p.cache->set_hooks(p.sched.get());
  StackContext ctx;
  ctx.block = p.block.get();
  ctx.cache = p.cache.get();
  ctx.fs = p.fs.get();
  ctx.cpu = p.cpu.get();
  p.sched->Attach(ctx);
  p.block->set_completion_hook(
      [sched = p.sched.get()](const BlockRequest& req) {
        sched->OnBlockComplete(req);
      });
  p.block->Start();
  p.fs->Mount();
  p.fs->StartWriteback();
  return p;
}

struct Row {
  double a_mbps;
  uint64_t gc_pages;
};

Row Run(bool tag_gc) {
  Simulator sim;
  Pieces p = MakeCowStack(tag_gc, 8.0 * 1024 * 1024);
  Process a(1, "A");
  Process b(2, "B");
  b.set_account(1);
  constexpr Nanos kEnd = Sec(30);
  WorkloadStats a_stats;
  WorkloadStats b_stats;
  // A streams a large read-only dataset (bigger than the clean cache):
  // disk-bound, so GC noise shows up in its throughput.
  int64_t a_ino = p.fs->CreatePreallocated("/a", 8ULL << 30);
  auto reader = [&]() -> Task<void> {
    co_await SequentialReader(*p.kernel, a, a_ino, 8ULL << 30, 256 * 1024,
                              kEnd, &a_stats);
  };
  auto churner = [&]() -> Task<void> {
    // Cyclic overwrites of a 32 MB working set, fsync'd in 8 MB strides:
    // every pass re-logs the whole set, leaving the previous copy dead —
    // steady GC pressure in a 96 MB log.
    int64_t ino = co_await p.kernel->Creat(b, "/b");
    uint64_t offset = 0;
    uint64_t stable = 64ULL << 20;  // grows; written once, never rewritten
    while (Simulator::current().Now() < kEnd) {
      co_await p.kernel->Write(b, ino, offset, 1 << 20);
      // Interleave a long-lived page: every log segment ends up holding a
      // few survivors among the churn, so the collector must migrate.
      co_await p.kernel->Write(b, ino, stable, kPageSize);
      stable += kPageSize;
      b_stats.bytes += (1 << 20) + kPageSize;
      offset += 1 << 20;
      // Fsync per stride so each flush lands churn + survivor together in
      // the head segment (flushes allocate in sorted page order).
      co_await p.kernel->Fsync(b, ino);
      if (offset >= (32 << 20)) {
        offset = 0;
      }
    }
  };
  sim.Spawn(reader());
  sim.Spawn(churner());
  sim.Run(kEnd);
  Row row;
  row.a_mbps = a_stats.MBps(0, kEnd);
  row.gc_pages = p.fs->gc_pages_moved();
  return row;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Extension: Split-Token on a copy-on-write FS — GC proxy "
             "tagging (B churns, throttled to 8 MB/s)");
  Row tagged = Run(true);
  Row untagged = Run(false);
  std::printf("%18s %12s %18s\n", "gc-integration", "A(MB/s)",
              "gc-pages-moved");
  std::printf("%18s %12.1f %18llu\n", "tagged-proxy", tagged.a_mbps,
              static_cast<unsigned long long>(tagged.gc_pages));
  std::printf("%18s %12.1f %18llu\n", "untagged", untagged.a_mbps,
              static_cast<unsigned long long>(untagged.gc_pages));
  std::printf("\n(With the collector tagged as a proxy, B is billed for the "
              "migration it causes and throttled accordingly; untagged, the "
              "GC churn is free and A pays for it.)\n");
  return 0;
}
