// sched_search — autotuner over the declarative scheduler policy space.
//
// Candidates are the registered PolicySpecs (the canonical kinds plus the
// deadline-token / tenant-afq hybrids) and --random N pseudo-random but
// structurally valid compositions (RandomPolicySpec over fixed seeds, so a
// given command line is fully deterministic). Each candidate runs three
// deterministic workloads shaped like the paper's experiments:
//
//   fsync-entangle — fig05: a transactional fsync writer vs a bulk buffered
//                    writer on an HDD ext4 stack;
//   mixed-rw       — fig09: interleaved readers and writers plus a
//                    transactional process, on an SSD blk-mq stack;
//   read-heavy     — two random readers against a background writer on HDD.
//
// The cost model is the executor's measurement surface: makespan
// (ops_done_at), read p99 and fsync p99 service times (ExecResult::
// op_latency), device busy time, and peak queue depth (the high-water mark
// of elevator + software-queue occupancy — the memory/backlog cost a
// throughput-only comparison hides: two specs with equal makespan can
// differ by an order of magnitude in how much submitted-but-unserviced work
// they let pile up). A candidate is valid only if the run quiesced (all ops
// completed, nothing lost: submitted = completed + merged, elevator empty).
// Per workload the tool reports the Pareto front over the five metrics
// (lower is better) and, per canonical scheduler, which composed specs
// strictly beat it on which axis.
//
// Self-check (exit 1 on violation):
//   1. determinism — every front member re-runs metric-identical;
//   2. front consistency — no front member is dominated by any valid
//      candidate;
//   3. coverage — at least one non-canonical spec strictly beats a
//      hand-written (canonical) scheduler on at least one workload axis.
//
//   sched_search [--random N] [--budget SECONDS] [--out FILE]
//
// --budget stops *starting* new random candidates once spent (registered
// specs always run, so the report is never missing its baselines); the cut
// is logged in the report ("random_skipped") rather than silent.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/core/sched_factory.h"
#include "src/sched/policy.h"
#include "src/sim/random.h"
#include "src/stress/executor.h"
#include "src/stress/scenario.h"
#include "src/workload/json_mini.h"

namespace splitio {
namespace {

struct Metrics {
  bool valid = false;
  Nanos makespan = 0;
  Nanos read_p99 = 0;
  Nanos fsync_p99 = 0;
  Nanos device_busy = 0;
  int queue_peak = 0;

  bool operator==(const Metrics&) const = default;
};

struct Candidate {
  PolicySpec spec;
  bool canonical = false;  // one of the canonical kinds
};

struct Evaluated {
  const Candidate* candidate = nullptr;
  Metrics metrics;
  bool pareto = false;
};

struct Domination {
  std::string spec;
  std::string beats;  // a canonical scheduler's name
  std::string axis;   // which metric axis the strict win is on
};

struct WorkloadResult {
  std::string name;
  std::vector<Evaluated> rows;
  std::vector<Domination> dominations;
};

Nanos Percentile99(std::vector<Nanos> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t idx = (values.size() * 99 + 99) / 100;  // ceil(0.99n), 1-based
  if (idx > values.size()) {
    idx = values.size();
  }
  return values[idx - 1];
}

Metrics Evaluate(const Scenario& base, const PolicySpec& spec) {
  Scenario s = base;
  s.stack.use_spec = true;
  s.stack.spec = spec;
  ExecOptions opts;
  opts.trace = false;
  opts.crash_points = 0;
  ExecResult r = ExecuteScenario(s, opts);

  Metrics m;
  m.valid = r.all_ops_completed &&
            r.submitted == r.completed + r.merged &&
            r.inflight_at_end == 0 && r.elevator_empty;
  m.makespan = r.ops_done_at;
  m.device_busy = r.device_busy;
  m.queue_peak = r.queue_peak;
  std::vector<Nanos> reads;
  std::vector<Nanos> fsyncs;
  for (size_t i = 0; i < base.program.ops.size(); ++i) {
    if (base.program.ops[i].kind == StressOpKind::kRead) {
      reads.push_back(r.op_latency[i]);
    } else if (base.program.ops[i].kind == StressOpKind::kFsync) {
      fsyncs.push_back(r.op_latency[i]);
    }
  }
  m.read_p99 = Percentile99(std::move(reads));
  m.fsync_p99 = Percentile99(std::move(fsyncs));
  return m;
}

// a dominates b: no metric worse, at least one strictly better.
bool Dominates(const Metrics& a, const Metrics& b) {
  if (!a.valid || !b.valid) {
    return a.valid && !b.valid;
  }
  bool no_worse = a.makespan <= b.makespan && a.read_p99 <= b.read_p99 &&
                  a.fsync_p99 <= b.fsync_p99 &&
                  a.device_busy <= b.device_busy &&
                  a.queue_peak <= b.queue_peak;
  bool better = a.makespan < b.makespan || a.read_p99 < b.read_p99 ||
                a.fsync_p99 < b.fsync_p99 || a.device_busy < b.device_busy ||
                a.queue_peak < b.queue_peak;
  return no_worse && better;
}

// --------------------------------------------------------------------------
// The three deterministic workloads (programs follow the determinism
// contract in src/workload/program.h, so every candidate sees identical
// offered load).
// --------------------------------------------------------------------------

StressOp Op(StressOpKind kind, int proc, int file, uint64_t offset,
            uint64_t len, Nanos delay = 0) {
  StressOp op;
  op.kind = kind;
  op.proc = proc;
  op.file = file;
  op.offset = offset;
  op.len = len;
  op.delay = delay;
  return op;
}

Scenario FsyncEntangle() {
  Scenario s;
  s.seed = 105;
  s.program.num_procs = 2;
  s.program.num_files = 2;
  s.program.priorities = {1, 7};
  for (int i = 0; i < 24; ++i) {
    s.program.ops.push_back(Op(StressOpKind::kWrite, 0, 0,
                               static_cast<uint64_t>(i) * 4096, 4096,
                               Usec(500)));
    s.program.ops.push_back(Op(StressOpKind::kFsync, 0, 0, 0, 0));
  }
  // Bulk writer dirties ~10 MB with no think time: the backlog the entangled
  // commits (and a split policy's entry-side throttling) have to contend
  // with.
  for (int i = 0; i < 40; ++i) {
    s.program.ops.push_back(Op(StressOpKind::kWrite, 1, 1,
                               static_cast<uint64_t>(i) * (256 << 10),
                               256 << 10));
  }
  return s;
}

Scenario MixedRw() {
  Scenario s;
  s.seed = 109;
  s.stack.device = StackConfig::DeviceKind::kSsd;
  s.stack.mq = true;
  s.stack.hw_queues = 2;
  s.stack.queue_depth = 4;
  s.program.num_procs = 3;
  s.program.num_files = 3;
  s.program.priorities = {2, 4, 6};
  for (int i = 0; i < 48; ++i) {
    s.program.ops.push_back(Op(StressOpKind::kWrite, 0, 0,
                               static_cast<uint64_t>(i) * 65536, 65536));
    s.program.ops.push_back(Op(StressOpKind::kRead, 1, 0,
                               static_cast<uint64_t>((i * 7) % 48) * 65536,
                               65536, Usec(250)));
  }
  for (int i = 0; i < 10; ++i) {
    s.program.ops.push_back(Op(StressOpKind::kWrite, 2, 2,
                               static_cast<uint64_t>(i) * 16384, 16384));
    s.program.ops.push_back(Op(StressOpKind::kFsync, 2, 2, 0, 0, Msec(1)));
  }
  return s;
}

Scenario ReadHeavy() {
  Scenario s;
  s.seed = 113;
  s.program.num_procs = 3;
  s.program.num_files = 2;
  s.program.priorities = {3, 3, 7};
  // Two readers stride across a cold region (holes read through the stack)
  // while a background writer keeps the write path busy.
  for (int i = 0; i < 40; ++i) {
    s.program.ops.push_back(Op(StressOpKind::kRead, 0, 0,
                               static_cast<uint64_t>((i * 13) % 64) * 65536,
                               65536, Usec(500)));
    s.program.ops.push_back(Op(StressOpKind::kRead, 1, 0,
                               static_cast<uint64_t>((i * 5) % 64) * 65536,
                               65536, Usec(500)));
  }
  for (int i = 0; i < 24; ++i) {
    s.program.ops.push_back(Op(StressOpKind::kWrite, 2, 1,
                               static_cast<uint64_t>(i) * (128 << 10),
                               128 << 10));
  }
  return s;
}

// --------------------------------------------------------------------------
// Report.
// --------------------------------------------------------------------------

std::string MetricsJson(const Metrics& m) {
  std::string out = "{\"valid\":";
  out += m.valid ? "true" : "false";
  out += ",\"makespan_ns\":" + std::to_string(m.makespan);
  out += ",\"read_p99_ns\":" + std::to_string(m.read_p99);
  out += ",\"fsync_p99_ns\":" + std::to_string(m.fsync_p99);
  out += ",\"device_busy_ns\":" + std::to_string(m.device_busy);
  out += ",\"queue_peak\":" + std::to_string(m.queue_peak);
  out += "}";
  return out;
}

int Usage() {
  std::fprintf(stderr,
               "usage: sched_search [--random N] [--budget SECONDS]\n"
               "                    [--out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  using namespace splitio;

  int random_candidates = 24;
  double budget_seconds = 0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--random") {
      const char* val = next();
      if (val == nullptr) {
        return Usage();
      }
      random_candidates = std::atoi(val);
      if (random_candidates < 0) {
        return Usage();
      }
    } else if (arg == "--budget") {
      const char* val = next();
      if (val == nullptr) {
        return Usage();
      }
      budget_seconds = std::atof(val);
      if (budget_seconds < 0) {
        return Usage();
      }
    } else if (arg == "--out") {
      const char* val = next();
      if (val == nullptr) {
        return Usage();
      }
      out_path = val;
    } else {
      return Usage();
    }
  }

  auto t0 = std::chrono::steady_clock::now();
  auto budget_spent = [&]() {
    if (budget_seconds <= 0) {
      return false;
    }
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count() >= budget_seconds;
  };

  // Candidate pool: every registered spec, then the random compositions.
  // Random seeds are fixed (1000 + i) so the pool depends only on the
  // command line, never on prior draws or wall clock.
  std::vector<Candidate> pool;
  for (const RegisteredSpec& entry : RegisteredSpecs()) {
    Candidate cand;
    cand.spec = entry.build();
    cand.canonical = pool.size() < kCanonicalSpecCount;
    pool.push_back(std::move(cand));
  }
  int random_skipped = 0;
  for (int i = 0; i < random_candidates; ++i) {
    if (budget_spent()) {
      random_skipped = random_candidates - i;
      break;
    }
    Rng rng(1000 + static_cast<uint64_t>(i));
    Candidate cand;
    cand.spec = RandomPolicySpec(rng);
    // Random names can collide across seeds (the name encodes the axes, not
    // the numeric config); keep first occurrence so report rows stay unique.
    bool duplicate = false;
    for (const Candidate& c : pool) {
      if (c.spec.name == cand.spec.name) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      pool.push_back(std::move(cand));
    }
  }

  struct Workload {
    std::string name;
    Scenario scenario;
  };
  std::vector<Workload> workloads = {{"fsync-entangle", FsyncEntangle()},
                                     {"mixed-rw", MixedRw()},
                                     {"read-heavy", ReadHeavy()}};

  bool determinism_ok = true;
  bool front_ok = true;
  bool dominates_canonical = false;
  std::vector<WorkloadResult> results;

  for (const Workload& w : workloads) {
    WorkloadResult res;
    res.name = w.name;
    for (const Candidate& cand : pool) {
      Evaluated row;
      row.candidate = &cand;
      row.metrics = Evaluate(w.scenario, cand.spec);
      res.rows.push_back(row);
    }
    // Pareto front over valid rows.
    for (Evaluated& row : res.rows) {
      if (!row.metrics.valid) {
        continue;
      }
      row.pareto = true;
      for (const Evaluated& other : res.rows) {
        if (&other != &row && Dominates(other.metrics, row.metrics)) {
          row.pareto = false;
          break;
        }
      }
    }
    // Self-check 1+2: front members re-run metric-identical and stay
    // undominated (recheck against a fresh evaluation of every candidate).
    for (const Evaluated& row : res.rows) {
      if (!row.pareto) {
        continue;
      }
      Metrics again = Evaluate(w.scenario, row.candidate->spec);
      if (!(again == row.metrics)) {
        determinism_ok = false;
        std::fprintf(stderr,
                     "sched_search: %s/%s re-ran with different metrics\n",
                     w.name.c_str(), row.candidate->spec.name.c_str());
      }
      for (const Evaluated& other : res.rows) {
        if (other.candidate != row.candidate &&
            Dominates(other.metrics, again)) {
          front_ok = false;
          std::fprintf(stderr,
                       "sched_search: front member %s/%s dominated by %s\n",
                       w.name.c_str(), row.candidate->spec.name.c_str(),
                       other.candidate->spec.name.c_str());
        }
      }
    }
    // Per-axis wins of composed specs over hand-written schedulers.
    for (const Evaluated& row : res.rows) {
      if (row.candidate->canonical || !row.metrics.valid) {
        continue;
      }
      for (const Evaluated& base : res.rows) {
        if (!base.candidate->canonical || !base.metrics.valid) {
          continue;
        }
        auto axis_win = [&](Nanos mine, Nanos theirs, const char* axis) {
          if (mine < theirs) {
            res.dominations.push_back({row.candidate->spec.name,
                                       base.candidate->spec.name, axis});
            dominates_canonical = true;
          }
        };
        axis_win(row.metrics.makespan, base.metrics.makespan, "makespan");
        axis_win(row.metrics.read_p99, base.metrics.read_p99, "read_p99");
        axis_win(row.metrics.fsync_p99, base.metrics.fsync_p99, "fsync_p99");
        axis_win(row.metrics.device_busy, base.metrics.device_busy,
                 "device_busy");
        axis_win(row.metrics.queue_peak, base.metrics.queue_peak,
                 "queue_peak");
      }
    }
    results.push_back(std::move(res));
  }

  bool pass = determinism_ok && front_ok && dominates_canonical;

  // ---- Report: human summary to stdout, JSON to --out (or stdout). ----
  std::string json = "{\"candidates\":" + std::to_string(pool.size());
  json += ",\"random_skipped\":" + std::to_string(random_skipped);
  json += ",\"workloads\":[";
  for (size_t wi = 0; wi < results.size(); ++wi) {
    const WorkloadResult& res = results[wi];
    if (wi > 0) {
      json += ",";
    }
    json += "{\"name\":\"" + jsonmini::Escape(res.name) + "\",\"rows\":[";
    for (size_t i = 0; i < res.rows.size(); ++i) {
      const Evaluated& row = res.rows[i];
      if (i > 0) {
        json += ",";
      }
      json += "{\"spec\":\"" + jsonmini::Escape(row.candidate->spec.name) +
              "\",\"canonical\":" +
              (row.candidate->canonical ? "true" : "false") +
              ",\"pareto\":" + (row.pareto ? "true" : "false") +
              ",\"metrics\":" + MetricsJson(row.metrics) + "}";
    }
    json += "],\"dominations\":[";
    for (size_t i = 0; i < res.dominations.size(); ++i) {
      const Domination& d = res.dominations[i];
      if (i > 0) {
        json += ",";
      }
      json += "{\"spec\":\"" + jsonmini::Escape(d.spec) + "\",\"beats\":\"" +
              jsonmini::Escape(d.beats) + "\",\"axis\":\"" + d.axis + "\"}";
    }
    json += "]}";
  }
  json += "],\"selfcheck\":{\"determinism\":";
  json += determinism_ok ? "true" : "false";
  json += ",\"front_consistent\":";
  json += front_ok ? "true" : "false";
  json += ",\"dominates_canonical\":";
  json += dominates_canonical ? "true" : "false";
  json += ",\"pass\":";
  json += pass ? "true" : "false";
  json += "}}";

  for (const WorkloadResult& res : results) {
    std::printf("== %s ==\n", res.name.c_str());
    std::printf("%-16s %5s %6s %12s %12s %12s %12s %6s\n", "spec", "canon",
                "front", "makespan_ms", "read_p99_ms", "fsync_p99_ms",
                "busy_ms", "qpeak");
    for (const Evaluated& row : res.rows) {
      if (!row.metrics.valid) {
        std::printf("%-16s %5s %6s %12s\n", row.candidate->spec.name.c_str(),
                    row.candidate->canonical ? "yes" : "", "", "INVALID");
        continue;
      }
      std::printf("%-16s %5s %6s %12.2f %12.2f %12.2f %12.2f %6d\n",
                  row.candidate->spec.name.c_str(),
                  row.candidate->canonical ? "yes" : "",
                  row.pareto ? "*" : "",
                  static_cast<double>(row.metrics.makespan) / 1e6,
                  static_cast<double>(row.metrics.read_p99) / 1e6,
                  static_cast<double>(row.metrics.fsync_p99) / 1e6,
                  static_cast<double>(row.metrics.device_busy) / 1e6,
                  row.metrics.queue_peak);
    }
    std::printf("axis wins over hand-written schedulers: %zu\n\n",
                res.dominations.size());
  }
  std::printf("self-check: determinism %s; front consistent %s; composed "
              "spec beats a canonical on some axis %s => %s\n",
              determinism_ok ? "yes" : "NO", front_ok ? "yes" : "NO",
              dominates_canonical ? "yes" : "NO", pass ? "PASS" : "FAIL");

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "sched_search: cannot write %s\n",
                   out_path.c_str());
      return 2;
    }
    out << json << "\n";
  } else {
    std::printf("%s\n", json.c_str());
  }
  return pass ? 0 : 1;
}
