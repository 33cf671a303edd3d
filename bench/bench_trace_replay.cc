// Real-trace replay throughput across all schedulers.
//
// Ingests the committed sample traces (a blktrace text slice and an
// MSR-Cambridge-style CSV slice), reconstructs each into a per-process
// workload program, amplifies it to ~64 Ki requests per run, and replays
// it through the full simulated stack under every scheduler — 8 scheds x
// 2 traces ~= 1.05 M replayed requests per invocation. The headline
// metric is replayed requests per wall-clock second; the cross-scheduler
// content fingerprint is asserted along the way (any divergence is a
// determinism-contract violation, and the bench exits non-zero).
//
// Trace files load from SPLITIO_TRACE_DATA_DIR (baked in at compile time,
// pointing at the source tree's tests/data); --trace-dir / the
// SPLITIO_TRACE_DIR environment variable override it, so the bench can
// replay a real downloaded MSR volume unchanged. --target N adjusts the
// per-run amplification.
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common/flags.h"
#include "bench/common/harness.h"
#include "src/workload/trace/parse.h"
#include "src/workload/trace/replay.h"

#ifndef SPLITIO_TRACE_DATA_DIR
#define SPLITIO_TRACE_DATA_DIR "tests/data"
#endif

namespace splitio {
namespace {

struct TraceRun {
  std::string label;
  std::string name;  // file name within the trace directory
};

double WallSeconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace
}  // namespace splitio

int main(int argc, char** argv) {
  splitio::ParseBenchFlags(argc, argv);
  using namespace splitio;

  std::string dir = SPLITIO_TRACE_DATA_DIR;
  if (const char* env = std::getenv("SPLITIO_TRACE_DIR")) {
    dir = env;
  }
  uint64_t target = 64 * 1024;  // requests per (trace, sched) run
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0 && i + 1 < argc) {
      dir = argv[++i];
    } else if (std::strcmp(argv[i], "--target") == 0 && i + 1 < argc) {
      target = std::strtoull(argv[++i], nullptr, 0);
    }
  }

  PrintTitle("Trace replay: reconstructed real-trace programs under every "
             "scheduler");
  std::vector<TraceRun> traces = {
      {"blktrace", "sample_blktrace.txt"},
      {"msr-csv", "sample_msr.csv"},
  };

  ingest::ReconstructOptions rec;
  rec.max_procs = 8;
  rec.max_files = 4;
  rec.max_io_bytes = 64 * 1024;
  rec.max_delay = Msec(1);
  rec.time_scale = 0.01;  // compress real gaps so amplified runs fit

  uint64_t total_requests = 0;
  bool fingerprints_ok = true;
  auto wall_start = std::chrono::steady_clock::now();

  for (const TraceRun& t : traces) {
    std::string path = dir + "/" + t.name;
    ingest::ParsedTrace parsed;
    ingest::TraceError terr;
    if (!ingest::LoadTraceFile(path, ingest::TraceFormat::kAuto, &parsed,
                               &terr)) {
      std::fprintf(stderr, "bench_trace_replay: %s: %s\n", path.c_str(),
                   terr.Describe().c_str());
      return 2;
    }
    // The file name only, so the output does not depend on the checkout.
    std::printf("\n%s (%s): %llu records, %llu skipped lines\n",
                t.label.c_str(), t.name.c_str(),
                static_cast<unsigned long long>(parsed.records.size()),
                static_cast<unsigned long long>(parsed.lines_skipped));
    std::printf("%16s %10s %12s %10s %8s %18s\n", "sched", "ops",
                "sim-done(ms)", "submitted", "merged", "fingerprint");

    uint64_t base_fingerprint = 0;
    bool have_fingerprint = false;
    for (SchedKind sched : kAllSchedKinds) {
      StackCounterScope counter_scope(t.label + "/" +
                                      std::string(SchedName(sched)));
      ingest::ReplayOptions opt;
      opt.seed = 1;
      opt.only_sched = static_cast<int>(sched);
      // Amplify the committed slice up to the per-run request target.
      ingest::ReplayReport probe;
      std::string error;
      WorkloadProgram base;
      ingest::ReconstructStats stats;
      if (!ingest::Reconstruct(parsed, rec, &base, &stats, &error)) {
        std::fprintf(stderr, "bench_trace_replay: %s\n", error.c_str());
        return 2;
      }
      opt.repeat = static_cast<int>(
          (target + base.ops.size() - 1) / base.ops.size());
      ingest::ReplayReport report;
      if (!ingest::ReplayTrace(parsed, rec, opt, &report, &error) ||
          report.per_sched.empty()) {
        std::fprintf(stderr, "bench_trace_replay: %s\n", error.c_str());
        return 1;
      }
      const ingest::SchedReplayResult& r = report.per_sched.front();
      std::printf("%16s %10llu %12.1f %10llu %8llu 0x%016llx\n",
                  SchedName(sched), static_cast<unsigned long long>(r.ops),
                  static_cast<double>(r.ops_done_at) / 1e6,
                  static_cast<unsigned long long>(r.submitted),
                  static_cast<unsigned long long>(r.merged),
                  static_cast<unsigned long long>(r.fingerprint));
      total_requests += r.ops;
      if (!have_fingerprint) {
        base_fingerprint = r.fingerprint;
        have_fingerprint = true;
      } else if (r.fingerprint != base_fingerprint) {
        std::printf("  ^^ fingerprint diverges from %s under this trace!\n",
                    SchedName(kAllSchedKinds[0]));
        fingerprints_ok = false;
      }
    }
  }

  double wall_s = WallSeconds(wall_start);
  double reqs_per_wallsec =
      wall_s > 0 ? static_cast<double>(total_requests) / wall_s : 0;
  std::printf("\nreplayed %llu requests in %.2f s wall: %.0f reqs/wallsec; "
              "cross-scheduler fingerprints %s\n",
              static_cast<unsigned long long>(total_requests), wall_s,
              reqs_per_wallsec, fingerprints_ok ? "AGREE" : "DIVERGE");
  ReportMetric("replayed_requests", static_cast<double>(total_requests));
  ReportMetric("replay_reqs_per_wallsec", reqs_per_wallsec);
  ReportMetric("fingerprints_agree", fingerprints_ok ? 1.0 : 0.0);
  return fingerprints_ok ? 0 : 1;
}
