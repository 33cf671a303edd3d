// Sharded HDFS write isolation at cluster scale (§7.3, ROADMAP item 1).
//
// The Figure 21 scenario — throttled and unthrottled client groups writing
// pipelined replicated blocks, Split-Token on every worker — but on the
// sharded parallel simulator: one DES per worker node, conservative
// lookahead equal to the RPC latency, all cores. The bench sweeps the
// worker-shard grouping and reports simulated-events/sec per row, which is
// the scaling report the nightly CI uploads.
//
// Two invariants are checked on every run and make the bench fail loudly:
//   * zero causality violations (the lookahead really is conservative);
//   * the physical timeline is independent of the execution schedule — a
//     threads=1 and a threads=4 run of the same configuration must agree
//     on every client's byte count, total events, and every counter.
//
// Environment knobs (all optional):
//   SPLITIO_SHARD_CHECK=1     deterministic-output mode for the byte-diff
//                             ctest: no wall-clock numbers, configuration
//                             taken from the SPLITIO_SHARD_* vars below.
//   SPLITIO_SHARD_NODES       worker count            (default 100)
//   SPLITIO_SHARD_CLIENTS     clients per group       (default 4)
//   SPLITIO_SHARD_HORIZON_MS  simulated horizon in ms (default 400)
//   SPLITIO_SHARD_THREADS     pool size               (check mode; 1)
//   SPLITIO_SHARD_GROUPING    workers per shard       (check mode; 1)
//   SPLITIO_SHARD_SCHED       scheduler name          (check mode)
//   SPLITIO_SHARD_PERTURB=1   inflate the lookahead past the RPC latency —
//                             the negative control: the run must report
//                             causality violations and exit nonzero.
//   SPLITIO_SHARD_SPEEDUP_MIN require at least this events/sec speedup of
//                             the widest row over sequential (CI gate on
//                             multi-core runners; skipped when the machine
//                             has fewer than 4 cores).
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/apps/dfs_sharded.h"

namespace splitio {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoll(v) : fallback;
}

struct RunResult {
  std::vector<uint64_t> client_bytes;
  std::vector<uint64_t> client_ops;
  double throttled_mbps = 0;
  double unthrottled_mbps = 0;
  uint64_t events = 0;
  uint64_t epochs = 0;
  uint64_t messages = 0;
  uint64_t violations = 0;
  Counters delta;
  double wall_sec = 0;
};

struct Scenario {
  int nodes = 100;
  int clients_per_group = 4;
  Nanos horizon = Msec(400);
  int workers_per_shard = 1;
  int threads = 1;
  SchedKind sched = SchedKind::kSplitToken;
  bool perturb_lookahead = false;
  double cap_mbps = 8.0;
  // Small enough that blocks finalize (fsync -> journal -> device) well
  // inside the horizon, so the sweep exercises the whole stack.
  uint64_t block_bytes = 4ULL << 20;
};

RunResult RunOnce(const Scenario& sc) {
  RunResult out;
  Counters before = counters();
  auto wall_start = std::chrono::steady_clock::now();
  {
    ShardedDfs::Config config;
    config.workers = sc.nodes;
    config.workers_per_shard = sc.workers_per_shard;
    config.sched = sc.sched;
    config.threads = sc.threads;
    config.block_bytes = sc.block_bytes;
    if (sc.perturb_lookahead) {
      config.lookahead_override = config.rpc_latency * 4;
    }
    ShardedDfs cluster(config);
    cluster.Start();
    cluster.SetAccountLimit(1, sc.cap_mbps * 1024 * 1024);
    std::vector<WorkloadStats> throttled(
        static_cast<size_t>(sc.clients_per_group));
    std::vector<WorkloadStats> unthrottled(
        static_cast<size_t>(sc.clients_per_group));
    for (int i = 0; i < sc.clients_per_group; ++i) {
      cluster.AddClient(i, /*account=*/1, sc.horizon,
                        &throttled[static_cast<size_t>(i)]);
      cluster.AddClient(100000 + i, /*account=*/-1, sc.horizon,
                        &unthrottled[static_cast<size_t>(i)]);
    }
    ShardRunStats rs = cluster.Run(sc.horizon);
    out.events = rs.events;
    out.epochs = rs.epochs;
    out.messages = rs.messages;
    out.violations = rs.causality_violations;
    auto fold = [&](const std::vector<WorkloadStats>& group) {
      uint64_t bytes = 0;
      for (const auto& s : group) {
        out.client_bytes.push_back(s.bytes);
        out.client_ops.push_back(s.ops);
        bytes += s.bytes;
      }
      return static_cast<double>(bytes) / (1024.0 * 1024.0) /
             ToSeconds(sc.horizon);
    };
    out.throttled_mbps = fold(throttled);
    out.unthrottled_mbps = fold(unthrottled);
  }
  out.wall_sec = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - wall_start)
                     .count();
  out.delta = counters().Delta(before);
  return out;
}

// Everything the physical timeline determines — used to compare runs that
// differ only in execution schedule. At a fixed shard assignment (pool-size
// comparison) every counter must match, allocator traffic included. Across
// *different* groupings the physical counters still must match, but allocs
// may not: the runtime's own bookkeeping (per-shard outboxes, shard
// objects) scales with the shard count.
bool SameTimeline(const RunResult& a, const RunResult& b,
                  bool ignore_allocs) {
  if (a.client_bytes != b.client_bytes || a.client_ops != b.client_ops ||
      a.events != b.events) {
    return false;
  }
  Counters ca = a.delta;
  Counters cb = b.delta;
  if (ignore_allocs) {
    ca.allocs = 0;
    cb.allocs = 0;
  }
  return std::memcmp(&ca, &cb, sizeof(Counters)) == 0;
}

int CheckMode() {
  Scenario sc;
  sc.nodes = static_cast<int>(EnvInt("SPLITIO_SHARD_NODES", 12));
  sc.clients_per_group =
      static_cast<int>(EnvInt("SPLITIO_SHARD_CLIENTS", 2));
  sc.horizon = Msec(EnvInt("SPLITIO_SHARD_HORIZON_MS", 200));
  sc.threads = static_cast<int>(EnvInt("SPLITIO_SHARD_THREADS", 1));
  sc.workers_per_shard =
      static_cast<int>(EnvInt("SPLITIO_SHARD_GROUPING", 1));
  sc.perturb_lookahead = EnvInt("SPLITIO_SHARD_PERTURB", 0) != 0;
  if (const char* name = std::getenv("SPLITIO_SHARD_SCHED")) {
    if (!SchedKindFromName(name, &sc.sched)) {
      std::fprintf(stderr, "%s\n",
                   UnknownSchedMessage(name, CanonicalSpecs()).c_str());
      return 2;
    }
  }
  // No wall-clock numbers in this mode: the ctest byte-diffs the full
  // stdout (table and BENCHJSON) across pool sizes.
  StackCounterScope scope(std::string(SchedName(sc.sched)) + "/sharded");
  RunResult r = RunOnce(sc);
  PrintTitle("Sharded HDFS determinism fingerprint");
  std::printf("nodes=%d clients=%dx2 horizon_ms=%lld grouping=%d sched=%s\n",
              sc.nodes, sc.clients_per_group,
              static_cast<long long>(sc.horizon / Msec(1)),
              sc.workers_per_shard, SchedName(sc.sched));
  std::printf("%8s %10s %12s %8s\n", "client", "account", "bytes", "ops");
  for (size_t i = 0; i < r.client_bytes.size(); ++i) {
    bool is_throttled = i < static_cast<size_t>(sc.clients_per_group);
    std::printf("%8zu %10s %12llu %8llu\n", i,
                is_throttled ? "capped" : "open",
                static_cast<unsigned long long>(r.client_bytes[i]),
                static_cast<unsigned long long>(r.client_ops[i]));
  }
  std::printf("events=%llu epochs=%llu messages=%llu violations=%llu\n",
              static_cast<unsigned long long>(r.events),
              static_cast<unsigned long long>(r.epochs),
              static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.violations));
  if (r.violations > 0) {
    std::printf("FAIL: causality violations detected\n");
    return 1;
  }
  return 0;
}

int ScalingMode() {
  const int nodes = static_cast<int>(EnvInt("SPLITIO_SHARD_NODES", 100));
  const int clients =
      static_cast<int>(EnvInt("SPLITIO_SHARD_CLIENTS", 4));
  const Nanos horizon = Msec(EnvInt("SPLITIO_SHARD_HORIZON_MS", 400));
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  PrintTitle("Sharded HDFS write isolation (" + std::to_string(nodes) +
             " workers, 3x replication, " + std::to_string(clients) +
             " capped + " + std::to_string(clients) + " open writers)");
  std::printf("host cores: %d\n\n", hw);
  std::printf("%13s %8s %8s %12s %12s %14s %10s\n", "worker-shards",
              "threads", "epochs", "capped MB/s", "open MB/s", "events/sec",
              "speedup");

  bool ok = true;
  double seq_eps = 0;
  double best_eps = 0;
  RunResult reference;
  // Row 1 is the sequential reference (every machine in one shard, one
  // thread); the remaining rows split the workers across more and more
  // shards and use every core. The physical timeline must not move.
  std::vector<std::pair<int, int>> rows;  // (worker shards, threads)
  rows.emplace_back(1, 1);
  for (int s = 2; s <= 8; s *= 2) {
    rows.emplace_back(s, 0);
  }
  rows.emplace_back(nodes, 0);  // one DES per node
  for (size_t row = 0; row < rows.size(); ++row) {
    const int worker_shards = std::min(rows[row].first, nodes);
    Scenario sc;
    sc.nodes = nodes;
    sc.clients_per_group = clients;
    sc.horizon = horizon;
    sc.workers_per_shard = (nodes + worker_shards - 1) / worker_shards;
    sc.threads = rows[row].second;
    StackCounterScope scope(std::string(SchedName(sc.sched)) + "/sharded-s" +
                            std::to_string(worker_shards));
    RunResult r = RunOnce(sc);
    const double eps =
        r.wall_sec > 0 ? static_cast<double>(r.events) / r.wall_sec : 0;
    if (row == 0) {
      seq_eps = eps;
      reference = r;
    }
    best_eps = std::max(best_eps, eps);
    std::printf("%13d %8d %8llu %12.1f %12.1f %14.0f %9.2fx\n",
                worker_shards, sc.threads == 0 ? hw : sc.threads,
                static_cast<unsigned long long>(r.epochs), r.throttled_mbps,
                r.unthrottled_mbps, eps, seq_eps > 0 ? eps / seq_eps : 0);
    ReportMetric("sharded_eps_s" + std::to_string(worker_shards), eps);
    if (r.violations > 0) {
      std::printf("FAIL: %llu causality violations at %d shards\n",
                  static_cast<unsigned long long>(r.violations),
                  worker_shards);
      ok = false;
    }
    // Grouping invariance: workers only interact through the client shard,
    // so re-sharding must not move the physical timeline.
    if (row > 0 && !SameTimeline(reference, r, /*ignore_allocs=*/true)) {
      std::printf("FAIL: timeline changed between 1 and %d worker shards\n",
                  worker_shards);
      ok = false;
    }
  }
  ReportMetric("sharded_events", static_cast<double>(reference.events));
  ReportMetric("sharded_throttled_mbps", reference.throttled_mbps);
  ReportMetric("sharded_unthrottled_mbps", reference.unthrottled_mbps);
  ReportMetric("sharded_speedup",
               seq_eps > 0 ? best_eps / seq_eps : 0);

  // Pool-size determinism spot check (the full matrix lives in the shard
  // gtest and the check_shard_determinism ctest): same sharding, 1 vs 4
  // threads, identical timeline and counters required.
  {
    Scenario sc;
    sc.nodes = std::min(nodes, 16);
    sc.clients_per_group = 2;
    sc.horizon = Msec(100);
    RunResult a = RunOnce(sc);
    sc.threads = 4;
    RunResult b = RunOnce(sc);
    if (SameTimeline(a, b, /*ignore_allocs=*/false)) {
      std::printf("\ndeterminism spot check (1 vs 4 threads): OK\n");
    } else {
      std::printf("\nFAIL: 1-thread and 4-thread runs diverged\n");
      ok = false;
    }
  }

  const double speedup_min = static_cast<double>(
      EnvInt("SPLITIO_SHARD_SPEEDUP_MIN", 0));
  if (speedup_min > 0) {
    if (hw < 4) {
      std::printf("speedup gate skipped: only %d cores\n", hw);
    } else if (seq_eps <= 0 || best_eps / seq_eps < speedup_min) {
      std::printf("FAIL: speedup %.2fx below required %.2fx\n",
                  seq_eps > 0 ? best_eps / seq_eps : 0, speedup_min);
      ok = false;
    } else {
      std::printf("speedup gate: %.2fx >= %.2fx OK\n", best_eps / seq_eps,
                  speedup_min);
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  if (splitio::EnvInt("SPLITIO_SHARD_CHECK", 0) != 0) {
    return splitio::CheckMode();
  }
  return splitio::ScalingMode();
}
