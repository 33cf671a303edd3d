// DfsCluster — HDFS-like distributed file system model (§7.3).
//
// One NameNode (placement only) and N worker machines, each with its own
// complete StorageStack running Split-Token. Clients write files in fixed
// blocks; each block is replicated to a pipeline of three workers. The
// client-to-worker protocol carries the *account* to bill, so a worker's
// local Split-Token charges the right tenant even though the I/O is
// performed by the worker's server threads — the paper's cross-machine tag
// propagation.
//
// The whole cluster runs inside one Simulator, which caps it at a handful
// of workers on one core. For cluster-scale runs (100–1000 nodes) use
// ShardedDfs (dfs_sharded.h): the same workload with one simulator per
// worker machine on the sharded parallel runtime (src/sim/shard.h).
#ifndef SRC_APPS_DFS_H_
#define SRC_APPS_DFS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/storage_stack.h"
#include "src/metrics/stats.h"
#include "src/sched/composed.h"
#include "src/sim/random.h"
#include "src/workload/workloads.h"

namespace splitio {

class DfsCluster {
 public:
  struct Config {
    int workers = 7;
    int replication = 3;
    uint64_t block_bytes = 64ULL << 20;
    uint64_t network_chunk = 1ULL << 20;  // pipeline packet granularity
    double network_bw = 1.0e9 / 8;        // 1 Gb/s per worker link
    uint64_t seed = 1234;
    StackConfig worker_stack;             // per-worker stack template
  };

  explicit DfsCluster(const Config& config);

  // Spawns every worker's background machinery.
  void Start();

  // Sets the normalized-bytes rate limit of `account` on every worker
  // (tokens are per-worker, as in the paper).
  void SetAccountLimit(int account, double bytes_per_sec);

  // A client writing `total_bytes` to its own file as pipelined replicated
  // blocks, billed to `account` (-1 = unthrottled). Runs until `until`.
  Task<void> ClientWriter(int client_id, int account, Nanos until,
                          WorkloadStats* stats);

  int workers() const { return static_cast<int>(workers_.size()); }
  StorageStack& worker(int i) { return *workers_[static_cast<size_t>(i)]; }

 private:
  // Chooses `replication` distinct workers for a block (NameNode logic).
  std::vector<int> PlaceBlock();

  // Writes one block chunk to one worker, billed to `account`.
  Task<void> WriteChunkOnWorker(int worker_idx, int client_id, int account,
                                int64_t ino, uint64_t offset, uint64_t len);

  Task<int64_t> OpenBlockFile(int worker_idx, int client_id, int account,
                              const std::string& name);

  Config config_;
  std::unique_ptr<CpuModel> cpu_;
  std::vector<std::unique_ptr<StorageStack>> workers_;
  std::vector<ComposedScheduler*> worker_scheds_;
  std::vector<std::map<int, Process*>> server_procs_;
  Rng placement_rng_;
};

}  // namespace splitio

#endif  // SRC_APPS_DFS_H_
