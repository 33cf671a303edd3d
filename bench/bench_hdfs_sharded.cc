// Sharded HDFS write isolation at cluster scale (§7.3, ROADMAP item 1).
//
// The Figure 21 scenario — throttled and unthrottled client groups writing
// pipelined replicated blocks, Split-Token on every worker — but on the
// sharded simulator: one DES per worker node, conservative lookahead equal
// to the RPC latency, shards run in line. The bench sweeps the worker-shard
// grouping and reports simulated-events/sec per row, which is the scaling
// report the nightly CI uploads.
//
// Two invariants are checked on every run and make the bench fail loudly:
//   * zero causality violations (the lookahead really is conservative);
//   * the physical timeline is independent of the grouping — every row
//     must agree with the one-shard row on every client's byte count, total
//     events, and every counter but allocs.
//
// Environment knobs (all optional):
//   SPLITIO_SHARD_CHECK=1     deterministic-output mode for the byte-diff
//                             ctest: no wall-clock numbers, configuration
//                             taken from the SPLITIO_SHARD_* vars below.
//   SPLITIO_SHARD_NODES       worker count, >= 3      (default 100)
//   SPLITIO_SHARD_CLIENTS     clients per group, >= 0 (default 4)
//   SPLITIO_SHARD_HORIZON_MS  horizon in ms, >= 1    (default 400)
//   SPLITIO_SHARD_GROUPING    workers per shard, >= 1 (check mode; 1)
//   SPLITIO_SHARD_SCHED       scheduler name          (check mode)
//   SPLITIO_SHARD_PERTURB=1   inflate the lookahead past the RPC latency —
//                             the negative control: the run must report
//                             causality violations and exit nonzero.
// An out-of-range value exits 2 naming the variable.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/apps/dfs_sharded.h"

namespace splitio {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::atoll(v) : fallback;
}

// Reads a knob that must be an integer of at least `min` that fits an int:
// fewer workers than the replication factor would never finish placing a
// block, a zero grouping divides by zero, a negative client count sizes a
// vector, and a zero horizon divides the MB/s columns by zero. Prints the
// variable and returns false on anything else.
bool EnvIntAtLeast(const char* name, int64_t fallback, int64_t min,
                   int* out) {
  const int64_t max = std::numeric_limits<int>::max();
  int64_t v = fallback;
  bool parsed = true;
  const char* text = std::getenv(name);
  if (text != nullptr && *text != '\0') {
    char* end = nullptr;
    errno = 0;
    v = std::strtoll(text, &end, 10);
    parsed = *end == '\0' && errno != ERANGE;
  }
  if (!parsed || v < min || v > max) {
    std::fprintf(stderr, "%s=%s is out of range: need an integer in [%lld, "
                 "%lld]\n", name, text != nullptr ? text : "",
                 static_cast<long long>(min), static_cast<long long>(max));
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

// The replication factor every scenario here uses: the floor on workers.
const int kReplication = ShardedDfs::Config{}.replication;

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
// differ only in how workers are grouped onto shards. The physical counters
// must match, but allocs may not: the runtime's own bookkeeping (per-shard
// outboxes, shard objects) scales with the shard count.
bool SameTimeline(const RunResult& a, const RunResult& b) {
  if (a.client_bytes != b.client_bytes || a.client_ops != b.client_ops ||
      a.events != b.events) {
    return false;
  }
  Counters ca = a.delta;
  Counters cb = b.delta;
  ca.allocs = 0;
  cb.allocs = 0;
  return std::memcmp(&ca, &cb, sizeof(Counters)) == 0;
}

int CheckMode() {
  Scenario sc;
  int horizon_ms = 0;
  if (!EnvIntAtLeast("SPLITIO_SHARD_NODES", 12, kReplication, &sc.nodes) ||
      !EnvIntAtLeast("SPLITIO_SHARD_CLIENTS", 2, 0, &sc.clients_per_group) ||
      !EnvIntAtLeast("SPLITIO_SHARD_HORIZON_MS", 200, 1, &horizon_ms) ||
      !EnvIntAtLeast("SPLITIO_SHARD_GROUPING", 1, 1,
                     &sc.workers_per_shard)) {
    return 2;
  }
  sc.horizon = Msec(horizon_ms);
  sc.perturb_lookahead = EnvInt("SPLITIO_SHARD_PERTURB", 0) != 0;
  if (const char* name = std::getenv("SPLITIO_SHARD_SCHED")) {
    if (!SchedKindFromName(name, &sc.sched)) {
      std::fprintf(stderr, "%s\n",
                   UnknownSchedMessage(name, CanonicalSpecs()).c_str());
      return 2;
    }
  }
  // No wall-clock numbers in this mode: the ctest byte-diffs the full
  // stdout (table and BENCHJSON) of repeated runs.
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
  int nodes = 0;
  int clients = 0;
  int horizon_ms = 0;
  if (!EnvIntAtLeast("SPLITIO_SHARD_NODES", 100, kReplication, &nodes) ||
      !EnvIntAtLeast("SPLITIO_SHARD_CLIENTS", 4, 0, &clients) ||
      !EnvIntAtLeast("SPLITIO_SHARD_HORIZON_MS", 400, 1, &horizon_ms)) {
    return 2;
  }
  const Nanos horizon = Msec(horizon_ms);

  PrintTitle("Sharded HDFS write isolation (" + std::to_string(nodes) +
             " workers, 3x replication, " + std::to_string(clients) +
             " capped + " + std::to_string(clients) + " open writers)");
  std::printf("%13s %8s %12s %12s %14s %10s\n", "worker-shards", "epochs",
              "capped MB/s", "open MB/s", "events/sec", "speedup");

  bool ok = true;
  double seq_eps = 0;
  double best_eps = 0;
  RunResult reference;
  // Row 1 is the reference (every machine in one shard); the remaining rows
  // split the workers across more and more shards. The physical timeline
  // must not move.
  const std::vector<int> rows = {1, 2, 4, 8, nodes};  // last: one per node
  for (size_t row = 0; row < rows.size(); ++row) {
    const int worker_shards = std::min(rows[row], nodes);
    Scenario sc;
    sc.nodes = nodes;
    sc.clients_per_group = clients;
    sc.horizon = horizon;
    sc.workers_per_shard = (nodes + worker_shards - 1) / worker_shards;
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
    std::printf("%13d %8llu %12.1f %12.1f %14.0f %9.2fx\n", worker_shards,
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
    if (row > 0 && !SameTimeline(reference, r)) {
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
