// Multi-queue scalability — device command queuing and hardware-queue
// fan-out under the split-token scheduler (ext4, 8-channel SSD).
//
// Eight threads issue 4 KB synchronous random reads. The grid sweeps the
// per-context command-queue depth (1..32) against the number of hardware
// dispatch contexts (1..8). With one context, depth is the only source of
// device parallelism, so throughput must rise monotonically with depth and
// reach at least 1.5x the depth-1 value by depth 8 (in practice the
// 8-channel SSD gives close to 8x). With eight contexts the device is
// already saturated at depth 1 and the rows flatten out.
//
// The bench is self-checking and exits non-zero when any of these hold:
//  - mq at nr_hw_queues=1, queue_depth=1 does not reproduce the legacy
//    configuration exactly (same bytes, ops, and block-layer request
//    counts). Both are one dispatch context at depth 1, serviced inline, so
//    this guards the mapping from BlockMqConfig to contexts;
//  - throughput is not monotonically non-decreasing in depth for the
//    single-context row;
//  - depth 8 fails to reach 1.5x depth 1 on the single-context row.
#include "bench/common/flags.h"
#include "bench/common/harness.h"

namespace splitio {
namespace {

struct RunResult {
  double mbps = 0;
  uint64_t bytes = 0;
  uint64_t ops = 0;
  uint64_t submitted = 0;
  uint64_t completed = 0;
};

constexpr int kThreads = 8;
constexpr Nanos kEnd = Sec(1);

RunResult Run(const std::string& label, bool mq, int hw, int depth) {
  StackCounterScope counter_scope(label);
  Simulator sim;
  BundleOptions opt;
  opt.stack.device = StackConfig::DeviceKind::kSsd;
  opt.stack.ssd.channels = 8;
  opt.stack.mq.enabled = mq;
  opt.stack.mq.nr_hw_queues = hw;
  opt.stack.mq.queue_depth = depth;
  Bundle b = MakeBundle(SchedKind::kSplitToken, std::move(opt));
  int64_t ino = b.stack->fs().CreatePreallocated("/data", 8ULL << 30);
  std::vector<WorkloadStats> stats(kThreads);
  auto worker = [&](int tid) -> Task<void> {
    Process* p = b.stack->NewProcess("t" + std::to_string(tid));
    co_await RandomReader(b.stack->kernel(), *p, ino, 8ULL << 30, 4096,
                          static_cast<uint64_t>(tid) + 1, kEnd,
                          &stats[static_cast<size_t>(tid)]);
  };
  for (int t = 0; t < kThreads; ++t) {
    sim.Spawn(worker(t));
  }
  sim.Run(kEnd);
  RunResult r;
  for (const auto& s : stats) {
    r.bytes += s.bytes;
    r.ops += s.ops;
  }
  r.mbps = static_cast<double>(r.bytes) / (1024.0 * 1024.0) / ToSeconds(kEnd);
  r.submitted = b.stack->block().total_submitted();
  r.completed = b.stack->block().total_completed();
  return r;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("MQ scalability: split-token, ext4, 8-channel SSD, 8 threads "
             "of 4KB sync random reads");

  RunResult legacy = Run("legacy", /*mq=*/false, 1, 1);
  std::printf("legacy single-queue: %8.1f MB/s (%llu ops)\n\n", legacy.mbps,
              static_cast<unsigned long long>(legacy.ops));

  const int hw_queues[] = {1, 2, 4, 8};
  const int depths[] = {1, 2, 4, 8, 16, 32};
  int failures = 0;

  std::printf("%7s |", "hw\\qd");
  for (int d : depths) {
    std::printf(" %8d", d);
  }
  std::printf("   (MB/s)\n");

  double hw1_by_depth[6] = {};
  for (int hw : hw_queues) {
    std::printf("%7d |", hw);
    for (size_t di = 0; di < 6; ++di) {
      int d = depths[di];
      char label[64];
      std::snprintf(label, sizeof(label), "mq-hw%d-qd%d", hw, d);
      RunResult r = Run(label, /*mq=*/true, hw, d);
      std::printf(" %8.1f", r.mbps);
      char metric[64];
      std::snprintf(metric, sizeof(metric), "mbps_hw%d_qd%d", hw, d);
      ReportMetric(metric, r.mbps);
      if (hw == 1) {
        hw1_by_depth[di] = r.mbps;
        if (d == 1) {
          // Equivalence gate: mq at hw=1, depth=1 is the legacy
          // configuration and must behave identically.
          if (r.bytes != legacy.bytes || r.ops != legacy.ops ||
              r.submitted != legacy.submitted ||
              r.completed != legacy.completed) {
            std::fprintf(stderr,
                         "FAIL: mq(hw=1,qd=1) != legacy: bytes %llu vs %llu, "
                         "ops %llu vs %llu, submitted %llu vs %llu, "
                         "completed %llu vs %llu\n",
                         static_cast<unsigned long long>(r.bytes),
                         static_cast<unsigned long long>(legacy.bytes),
                         static_cast<unsigned long long>(r.ops),
                         static_cast<unsigned long long>(legacy.ops),
                         static_cast<unsigned long long>(r.submitted),
                         static_cast<unsigned long long>(legacy.submitted),
                         static_cast<unsigned long long>(r.completed),
                         static_cast<unsigned long long>(legacy.completed));
            ++failures;
          }
        }
      }
    }
    std::printf("\n");
  }

  // Monotonicity along the single-context row (small tolerance for plateau
  // noise once the 8 channels are saturated).
  for (size_t di = 1; di < 6; ++di) {
    if (hw1_by_depth[di] < hw1_by_depth[di - 1] * 0.98) {
      std::fprintf(stderr,
                   "FAIL: hw=1 throughput not monotonic in depth: "
                   "qd%d=%.1f MB/s < qd%d=%.1f MB/s\n",
                   depths[di], hw1_by_depth[di], depths[di - 1],
                   hw1_by_depth[di - 1]);
      ++failures;
    }
  }
  double speedup = hw1_by_depth[3] / hw1_by_depth[0];
  ReportMetric("speedup_hw1_qd8", speedup);
  std::printf("\nhw=1 depth-8 speedup over depth-1: %.2fx\n", speedup);
  if (speedup < 1.5) {
    std::fprintf(stderr, "FAIL: hw=1 qd8 speedup %.2fx < 1.5x\n", speedup);
    ++failures;
  }
  if (failures == 0) {
    std::printf("all mq scalability checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
