#include "src/apps/dfs.h"

#include <algorithm>

#include "src/sim/simulator.h"

namespace splitio {

DfsCluster::DfsCluster(const Config& config)
    : config_(config), placement_rng_(config.seed) {
  cpu_ = std::make_unique<CpuModel>(32 * config.workers);
  for (int i = 0; i < config_.workers; ++i) {
    StackConfig stack_config = config_.worker_stack;
    stack_config.first_pid = 10000 * (i + 1);
    auto sched = std::make_unique<ComposedScheduler>(SplitTokenSpec());
    worker_scheds_.push_back(sched.get());
    workers_.push_back(std::make_unique<StorageStack>(
        stack_config, cpu_.get(), std::move(sched), nullptr));
  }
  server_procs_.resize(static_cast<size_t>(config_.workers));
}

void DfsCluster::Start() {
  for (auto& worker : workers_) {
    worker->Start();
  }
}

void DfsCluster::SetAccountLimit(int account, double bytes_per_sec) {
  for (ComposedScheduler* sched : worker_scheds_) {
    sched->SetAccountLimit(account, bytes_per_sec);
  }
}

std::vector<int> DfsCluster::PlaceBlock() {
  std::vector<int> chosen;
  while (static_cast<int>(chosen.size()) < config_.replication) {
    int w = static_cast<int>(placement_rng_.Below(
        static_cast<uint64_t>(config_.workers)));
    if (std::find(chosen.begin(), chosen.end(), w) == chosen.end()) {
      chosen.push_back(w);
    }
  }
  return chosen;
}

Task<int64_t> DfsCluster::OpenBlockFile(int worker_idx, int client_id,
                                        int account,
                                        const std::string& name) {
  auto& procs = server_procs_[static_cast<size_t>(worker_idx)];
  auto it = procs.find(client_id);
  if (it == procs.end()) {
    Process* p = workers_[static_cast<size_t>(worker_idx)]->NewProcess(
        "dfs-server-c" + std::to_string(client_id));
    // The RPC carries the account to bill; the server thread adopts it.
    p->set_account(account);
    it = procs.emplace(client_id, p).first;
  }
  co_return co_await workers_[static_cast<size_t>(worker_idx)]
      ->kernel()
      .Creat(*it->second, name);
}

Task<void> DfsCluster::WriteChunkOnWorker(int worker_idx, int client_id,
                                          int account, int64_t ino,
                                          uint64_t offset, uint64_t len) {
  (void)account;
  Process* proc =
      server_procs_[static_cast<size_t>(worker_idx)].at(client_id);
  // Network transfer cost for the chunk.
  co_await Delay(TransferTime(len, config_.network_bw));
  co_await workers_[static_cast<size_t>(worker_idx)]->kernel().Write(
      *proc, ino, offset, len);
}

Task<void> DfsCluster::ClientWriter(int client_id, int account, Nanos until,
                                    WorkloadStats* stats) {
  uint64_t block_no = 0;
  while (Simulator::current().Now() < until) {
    std::vector<int> pipeline = PlaceBlock();
    std::string name = "/dfs/c" + std::to_string(client_id) + "_b" +
                       std::to_string(block_no++);
    std::vector<int64_t> inos;
    for (int w : pipeline) {
      inos.push_back(co_await OpenBlockFile(w, client_id, account, name));
    }
    // Pipelined write: each chunk flows through the replica chain; the
    // chain is sequential per chunk (store-and-forward), chunks stream.
    for (uint64_t off = 0;
         off < config_.block_bytes && Simulator::current().Now() < until;
         off += config_.network_chunk) {
      uint64_t len =
          std::min(config_.network_chunk, config_.block_bytes - off);
      for (size_t r = 0; r < pipeline.size(); ++r) {
        co_await WriteChunkOnWorker(pipeline[r], client_id, account, inos[r],
                                    off, len);
      }
      stats->bytes += len;  // application-visible bytes (one copy)
    }
    // Block finalize: flush replicas (HDFS hflush/close).
    for (size_t r = 0; r < pipeline.size(); ++r) {
      Process* proc =
          server_procs_[static_cast<size_t>(pipeline[r])].at(client_id);
      co_await workers_[static_cast<size_t>(pipeline[r])]->kernel().Fsync(
          *proc, inos[r]);
    }
    ++stats->ops;
  }
}

}  // namespace splitio
