// Figure 21 — HDFS isolation with Split-Token on every worker.
//
// Seven workers (each a full StorageStack), 3x pipelined replication. Four
// throttled client threads (black bars) and four unthrottled ones (gray
// bars) write their own files. The rate cap sweeps along the x-axis. The
// expected upper bound on the throttled group's application throughput is
// (cap/3) * 7 workers / tokens spread across the cluster; with 64 MB
// blocks, placement imbalance strands tokens on idle workers, so the group
// falls short; 16 MB blocks spread load and approach the bound.
//
// The cluster is ShardedDfs at its default placement: one DES per worker,
// the clients on shard 0, creat/write/fsync RPCs with a 50 us latency and
// the account tag riding every request. bench_hdfs_sharded runs the same
// model at 100-1000 workers.
#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/apps/dfs_sharded.h"

namespace splitio {
namespace {

struct Row {
  double throttled_mbps;
  double unthrottled_mbps;
  double bound_mbps;
};

Row Run(double cap_mbps, uint64_t block_bytes) {
  StackCounterScope scope(std::string(SchedName(SchedKind::kSplitToken)) +
                          "/dfs-" + HumanBytes(block_bytes) + "/cap" +
                          std::to_string(static_cast<int>(cap_mbps)));
  ShardedDfs::Config config;
  config.block_bytes = block_bytes;
  ShardedDfs cluster(config);
  cluster.Start();
  cluster.SetAccountLimit(1, cap_mbps * 1024 * 1024);
  constexpr Nanos kEnd = Sec(60);
  std::vector<WorkloadStats> throttled(4);
  std::vector<WorkloadStats> unthrottled(4);
  for (int i = 0; i < 4; ++i) {
    cluster.AddClient(i, /*account=*/1, kEnd,
                      &throttled[static_cast<size_t>(i)]);
    cluster.AddClient(100 + i, /*account=*/-1, kEnd,
                      &unthrottled[static_cast<size_t>(i)]);
  }
  cluster.Run(kEnd);
  auto sum = [&](const std::vector<WorkloadStats>& group) {
    uint64_t bytes = 0;
    for (const auto& s : group) {
      bytes += s.bytes;
    }
    return static_cast<double>(bytes) / (1024.0 * 1024.0) / ToSeconds(kEnd);
  };
  Row row;
  row.throttled_mbps = sum(throttled);
  row.unthrottled_mbps = sum(unthrottled);
  row.bound_mbps = cap_mbps / 3.0 * 7.0;
  return row;
}

void Section(uint64_t block_bytes) {
  std::printf("\n-- HDFS block size %s --\n",
              HumanBytes(block_bytes).c_str());
  std::printf("%10s %16s %18s %12s\n", "cap(MB/s)", "throttled(MB/s)",
              "unthrottled(MB/s)", "bound(MB/s)");
  for (double cap : {4.0, 8.0, 16.0, 32.0}) {
    Row row = Run(cap, block_bytes);
    std::printf("%10.0f %16.1f %18.1f %12.1f\n", cap, row.throttled_mbps,
                row.unthrottled_mbps, row.bound_mbps);
  }
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;
  PrintTitle("Figure 21: HDFS write isolation (7 workers, 3x replication, "
             "4 throttled + 4 unthrottled writers)");
  Section(64ULL << 20);
  Section(16ULL << 20);
  std::printf("\n(Paper: smaller caps on the throttled group buy the "
              "unthrottled group throughput; 16 MB blocks balance load and "
              "close the gap to the (cap/3)*7 bound.)\n");
  return 0;
}
