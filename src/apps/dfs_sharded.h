// ShardedDfs — HDFS-like distributed file system model (§7.3) on the
// sharded simulator (src/sim/shard.h).
//
// One NameNode (placement only) and N worker machines. Clients write files
// in fixed blocks; each block is replicated to a pipeline of three workers.
// Shard 0 hosts the clients and the NameNode placement logic; every worker
// machine — a complete StorageStack with its own CpuModel and scheduler —
// lives on a worker shard (`workers_per_shard` machines per shard, 1 by
// default, i.e. one DES per node). Clients reach workers through explicit
// creat/write/fsync RPC messages across shard boundaries: a request's
// network latency (fixed RPC latency + wire transfer time) is exactly the
// conservative lookahead slack the shard runtime synchronizes on, so the
// cluster is cut along its real network edges. bench_fig21_hdfs runs
// the paper's 7-worker figure on it, bench_hdfs_sharded 100-1000 workers.
//
// The request carries the *account* to bill, and the worker's server
// process adopts it, so a worker's local Split-Token charges the right
// tenant even though the I/O is performed by the worker's server threads —
// the paper's cross-machine tag propagation, across simulator shards too.
#ifndef SRC_APPS_DFS_SHARDED_H_
#define SRC_APPS_DFS_SHARDED_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/sched_factory.h"
#include "src/core/storage_stack.h"
#include "src/metrics/stats.h"
#include "src/sim/shard.h"
#include "src/sim/sync.h"
#include "src/workload/workloads.h"

namespace splitio {

class ShardedDfs {
 public:
  struct Config {
    int workers = 7;
    // Worker machines per shard. 1 = one DES per node (the default). The
    // simulated timeline is the same for every grouping; only allocation
    // counts (shard bookkeeping) depend on it.
    int workers_per_shard = 1;
    int replication = 3;
    uint64_t block_bytes = 16ULL << 20;
    uint64_t network_chunk = 1ULL << 20;  // pipeline packet granularity
    double network_bw = 1.0e9 / 8;        // 1 Gb/s per worker link
    // One-way request/reply latency; every cross-shard message is at least
    // this far in the future, so it doubles as the conservative lookahead.
    Nanos rpc_latency = Usec(50);
    // Overrides the shard runtime's lookahead (0 = rpc_latency). Setting it
    // *above* rpc_latency breaks the conservative contract on purpose — the
    // negative control for the causality-violation detector.
    Nanos lookahead_override = 0;
    uint64_t seed = 1234;
    // Read by nothing: shards always run in line. Kept only because
    // perfbench/workloads.cc assigns it.
    int threads = 1;
    SchedKind sched = SchedKind::kSplitToken;
    StackConfig worker_stack;  // per-worker stack template
  };

  explicit ShardedDfs(const Config& config);
  ~ShardedDfs();

  // Spawns every worker's background machinery inside its shard.
  void Start();

  // Sets the normalized-bytes rate limit of `account` on every worker whose
  // scheduler supports account limits (tokens are per-worker, as in the
  // paper). No-op for legacy block-only schedulers.
  void SetAccountLimit(int account, double bytes_per_sec);

  // Spawns a client on shard 0 writing pipelined replicated blocks to its
  // own files, billed to `account` (-1 = unthrottled), until `until`.
  void AddClient(int client_id, int account, Nanos until,
                 WorkloadStats* stats);

  // Runs the whole cluster (all shards) up to `until`; see ShardGroup::Run.
  ShardRunStats Run(Nanos until);

  int workers() const { return static_cast<int>(workers_.size()); }
  int shards() const { return group_->size(); }
  const ShardRunStats& stats() const { return group_->stats(); }

 private:
  struct Worker {
    int shard = 0;
    std::unique_ptr<CpuModel> cpu;
    std::unique_ptr<StorageStack> stack;
    std::map<int, Process*> server_procs;  // per-client server thread
  };

  // One in-flight RPC on the client shard. std::map keeps entries
  // address-stable while the client coroutine is parked on the latch.
  struct PendingRpc {
    Latch latch;
    int64_t value = 0;
  };

  struct RpcArgs {
    enum class Op { kCreat, kWrite, kFsync };
    Op op;
    int client_id = 0;
    int account = -1;
    int64_t ino = 0;
    uint64_t offset = 0;
    uint64_t len = 0;
    std::string name;
  };

  int ShardOfWorker(int w) const {
    return 1 + w / config_.workers_per_shard;
  }

  // Sending nodes for ShardGroup::Send: the client side is node 0 and worker
  // `w` is node 1 + w, whatever shard hosts it, so same-time replies reach
  // the clients in the same order for every grouping.
  static constexpr int kClientNode = 0;
  static int NodeOfWorker(int w) { return 1 + w; }

  // Client side (shard 0): sends the request to worker `w`'s shard with
  // `wire_bytes` of payload on the wire, parks on the pending latch, and
  // returns the reply value.
  Task<int64_t> Call(int w, RpcArgs args, uint64_t wire_bytes);

  // Worker side: executes the request against worker `w`'s stack, then
  // messages the reply back to shard 0.
  Task<void> ServeAndReply(int w, uint64_t rpc_id, RpcArgs args);

  Task<void> ClientWriter(int client_id, int account, Nanos until,
                          WorkloadStats* stats);

  // NameNode logic: `replication` distinct workers for a block.
  std::vector<int> PlaceBlock(Rng* rng);

  Config config_;
  std::unique_ptr<ShardGroup> group_;
  std::vector<std::unique_ptr<Worker>> workers_;
  // Client-shard state (only ever touched by shard 0).
  uint64_t next_rpc_id_ = 1;
  std::map<uint64_t, PendingRpc> pending_;
};

}  // namespace splitio

#endif  // SRC_APPS_DFS_SHARDED_H_
