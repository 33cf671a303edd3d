#include "src/apps/dfs_sharded.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/sched/composed.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {

ShardedDfs::ShardedDfs(const Config& config) : config_(config) {
  // Checked in every build type: fewer workers than replicas would spin
  // PlaceBlock forever, and a zero grouping divides by zero below.
  if (config.workers < config.replication) {
    std::fprintf(stderr, "ShardedDfs: workers = %d is below replication = %d\n",
                 config.workers, config.replication);
    std::abort();
  }
  if (config.workers_per_shard < 1) {
    std::fprintf(stderr, "ShardedDfs: workers_per_shard = %d is below 1\n",
                 config.workers_per_shard);
    std::abort();
  }
  const int worker_shards =
      (config.workers + config.workers_per_shard - 1) /
      config.workers_per_shard;
  ShardGroup::Config gc;
  gc.shards = 1 + worker_shards;  // shard 0 = clients + NameNode
  gc.lookahead = config.lookahead_override > 0 ? config.lookahead_override
                                               : config.rpc_latency;
  group_ = std::make_unique<ShardGroup>(gc);

  workers_.reserve(static_cast<size_t>(config.workers));
  for (int w = 0; w < config_.workers; ++w) {
    auto worker = std::make_unique<Worker>();
    worker->shard = ShardOfWorker(w);
    // Build the machine inside its shard so construction-time scheduling
    // lands on the shard's simulator.
    group_->Setup(worker->shard, [&]() {
      worker->cpu = std::make_unique<CpuModel>(32);
      StackConfig stack_config = config_.worker_stack;
      stack_config.first_pid = 10000 * (w + 1);
      SchedInstance sched = MakeSched(config_.sched);
      worker->stack = std::make_unique<StorageStack>(
          stack_config, worker->cpu.get(), std::move(sched.split),
          std::move(sched.legacy));
    });
    workers_.push_back(std::move(worker));
  }
}

ShardedDfs::~ShardedDfs() {
  // Stacks were built inside their shards; tear them down there too, with
  // the shard's simulator current.
  for (auto& worker : workers_) {
    group_->Setup(worker->shard, [&]() {
      worker->stack.reset();
      worker->cpu.reset();
    });
  }
}

void ShardedDfs::Start() {
  for (auto& worker : workers_) {
    group_->Setup(worker->shard, [&]() { worker->stack->Start(); });
  }
}

void ShardedDfs::SetAccountLimit(int account, double bytes_per_sec) {
  for (auto& worker : workers_) {
    auto* sched =
        dynamic_cast<ComposedScheduler*>(worker->stack->scheduler());
    if (sched == nullptr) {
      continue;  // legacy block-only scheduler: no account plane
    }
    group_->Setup(worker->shard,
                  [&]() { sched->SetAccountLimit(account, bytes_per_sec); });
  }
}

void ShardedDfs::AddClient(int client_id, int account, Nanos until,
                           WorkloadStats* stats) {
  group_->Setup(0, [&]() {
    Simulator::current().Spawn(
        ClientWriter(client_id, account, until, stats));
  });
}

ShardRunStats ShardedDfs::Run(Nanos until) { return group_->Run(until); }

std::vector<int> ShardedDfs::PlaceBlock(Rng* rng) {
  std::vector<int> chosen;
  while (static_cast<int>(chosen.size()) < config_.replication) {
    int w = static_cast<int>(
        rng->Below(static_cast<uint64_t>(config_.workers)));
    if (std::find(chosen.begin(), chosen.end(), w) == chosen.end()) {
      chosen.push_back(w);
    }
  }
  return chosen;
}

Task<int64_t> ShardedDfs::Call(int w, RpcArgs args, uint64_t wire_bytes) {
  const uint64_t id = next_rpc_id_++;
  PendingRpc& pending = pending_[id];
  Simulator& sim = Simulator::current();
  // The request spends rpc_latency plus its wire time on the network — the
  // conservative slack that lets the destination shard run ahead.
  const Nanos deliver = sim.Now() + config_.rpc_latency +
                        TransferTime(wire_bytes, config_.network_bw);
  group_->Send(kClientNode, workers_[static_cast<size_t>(w)]->shard, deliver,
               [this, w, id, args]() {
                 Simulator::current().Spawn(ServeAndReply(w, id, args));
               });
  co_await pending.latch.Wait();
  const int64_t value = pending.value;
  pending_.erase(id);
  co_return value;
}

Task<void> ShardedDfs::ServeAndReply(int w, uint64_t rpc_id, RpcArgs args) {
  Worker& worker = *workers_[static_cast<size_t>(w)];
  int64_t value = 0;
  switch (args.op) {
    case RpcArgs::Op::kCreat: {
      auto it = worker.server_procs.find(args.client_id);
      if (it == worker.server_procs.end()) {
        Process* p = worker.stack->NewProcess(
            "dfs-server-c" + std::to_string(args.client_id));
        // The RPC carries the account to bill; the server thread adopts it.
        p->set_account(args.account);
        it = worker.server_procs.emplace(args.client_id, p).first;
      }
      value = co_await worker.stack->kernel().Creat(*it->second, args.name);
      break;
    }
    case RpcArgs::Op::kWrite: {
      Process* proc = worker.server_procs.at(args.client_id);
      co_await worker.stack->kernel().Write(*proc, args.ino, args.offset,
                                            args.len);
      break;
    }
    case RpcArgs::Op::kFsync: {
      Process* proc = worker.server_procs.at(args.client_id);
      co_await worker.stack->kernel().Fsync(*proc, args.ino);
      break;
    }
  }
  const Nanos deliver =
      Simulator::current().Now() + config_.rpc_latency;
  group_->Send(NodeOfWorker(w), 0, deliver, [this, rpc_id, value]() {
    // Executes on shard 0: resolve the pending call. The latch wakes the
    // client through the client shard's own event queue.
    auto it = pending_.find(rpc_id);
    assert(it != pending_.end());
    it->second.value = value;
    it->second.latch.Set();
  });
}

Task<void> ShardedDfs::ClientWriter(int client_id, int account, Nanos until,
                                    WorkloadStats* stats) {
  // Per-client placement stream: clients are independent of each other and
  // of how workers are grouped into shards.
  Rng rng(DeriveSeed(config_.seed + 1000003ULL *
                                        static_cast<uint64_t>(client_id)));
  uint64_t block_no = 0;
  while (Simulator::current().Now() < until) {
    std::vector<int> pipeline = PlaceBlock(&rng);
    std::string name = "/dfs/c" + std::to_string(client_id) + "_b" +
                       std::to_string(block_no++);
    std::vector<int64_t> inos;
    for (int w : pipeline) {
      RpcArgs open;
      open.op = RpcArgs::Op::kCreat;
      open.client_id = client_id;
      open.account = account;
      open.name = name;
      inos.push_back(co_await Call(w, open, /*wire_bytes=*/256));
    }
    // Pipelined write: each chunk flows through the replica chain; the
    // chain is sequential per chunk (store-and-forward), chunks stream.
    for (uint64_t off = 0;
         off < config_.block_bytes && Simulator::current().Now() < until;
         off += config_.network_chunk) {
      const uint64_t len =
          std::min(config_.network_chunk, config_.block_bytes - off);
      for (size_t r = 0; r < pipeline.size(); ++r) {
        RpcArgs write;
        write.op = RpcArgs::Op::kWrite;
        write.client_id = client_id;
        write.account = account;
        write.ino = inos[r];
        write.offset = off;
        write.len = len;
        co_await Call(pipeline[r], write, /*wire_bytes=*/len);
      }
      stats->bytes += len;  // application-visible bytes (one copy)
    }
    // Block finalize: flush replicas (HDFS hflush/close).
    for (size_t r = 0; r < pipeline.size(); ++r) {
      RpcArgs sync;
      sync.op = RpcArgs::Op::kFsync;
      sync.client_id = client_id;
      sync.account = account;
      sync.ino = inos[r];
      co_await Call(pipeline[r], sync, /*wire_bytes=*/64);
    }
    ++stats->ops;
  }
}

}  // namespace splitio
