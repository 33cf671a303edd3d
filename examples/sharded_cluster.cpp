// Example: distributed isolation with Split-Token on an HDFS-like cluster.
//
// Capped "dev" writers vs unthrottled "prod" writers over 3x replicated
// block pipelines. Account tags travel in the client-to-worker RPCs, so
// each worker's local Split-Token bills the right tenant even though the
// I/O is performed by server threads. Every worker machine is its own
// discrete-event simulator (DESIGN.md §11). The shards run on a
// thread pool (threads = 0 → all cores) synchronized by conservative
// lookahead equal to the RPC latency, and the result is byte-identical to
// the sequential run: re-run with SPLITIO_EXAMPLE_THREADS=1 vs =4 and diff
// the output.
//
//   ./build/examples/example_sharded_cluster
#include <cstdio>
#include <cstdlib>

#include "src/apps/dfs_sharded.h"

using namespace splitio;

int main() {
  ShardedDfs::Config config;
  config.workers = 24;  // one DES per worker node + a client shard
  config.replication = 3;
  config.block_bytes = 4ULL << 20;
  config.threads = 1;
  if (const char* t = std::getenv("SPLITIO_EXAMPLE_THREADS")) {
    config.threads = std::atoi(t);
  }
  ShardedDfs cluster(config);
  cluster.Start();
  cluster.SetAccountLimit(/*dev=*/1, 8.0 * 1024 * 1024);  // per worker

  constexpr Nanos kEnd = Msec(300);
  WorkloadStats prod[2];
  WorkloadStats dev[2];
  for (int i = 0; i < 2; ++i) {
    cluster.AddClient(/*client_id=*/100 + i, /*account=*/1, kEnd, &dev[i]);
    cluster.AddClient(/*client_id=*/i, /*account=*/-1, kEnd, &prod[i]);
  }
  ShardRunStats rs = cluster.Run(kEnd);

  auto mbps = [&](const WorkloadStats& s) { return s.MBps(0, kEnd); };
  std::printf("shards %d (threads %d): %llu events in %llu epochs, "
              "%llu cross-shard messages\n",
              cluster.shards(), cluster.threads(),
              static_cast<unsigned long long>(rs.events),
              static_cast<unsigned long long>(rs.epochs),
              static_cast<unsigned long long>(rs.messages));
  std::printf("prod writers : %.1f + %.1f MB/s (unthrottled)\n",
              mbps(prod[0]), mbps(prod[1]));
  std::printf("dev writers  : %.1f + %.1f MB/s (8 MB/s/worker cap, 3x "
              "replication)\n",
              mbps(dev[0]), mbps(dev[1]));
  if (rs.causality_violations != 0) {
    std::printf("FAIL: %llu causality violations\n",
                static_cast<unsigned long long>(rs.causality_violations));
    return 1;
  }
  return 0;
}
