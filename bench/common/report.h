// Machine-readable bench reporting.
//
// Every bench binary (via harness.h) registers an atexit hook that prints a
// single `BENCHJSON {...}` line to stdout when the process exits: total
// simulator wake-ups, the per-layer counters from src/metrics/counters.h,
// and any named paper-fidelity metrics the bench chose to expose through
// `ReportMetric`. The bench runner (tools/bench_runner.cc) parses this line
// and combines it with wall-clock and RSS into BENCH_results.json.
//
// Counters accumulate across every Simulator the binary runs (one per
// scheduler under comparison), so the line summarizes the whole binary.
#ifndef BENCH_COMMON_REPORT_H_
#define BENCH_COMMON_REPORT_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/counters.h"
#include "src/obs/metrics_global.h"
#include "src/obs/trace_global.h"
#include "src/sim/random.h"

namespace splitio {

namespace benchreport {

inline std::vector<std::pair<std::string, double>>& Metrics() {
  static std::vector<std::pair<std::string, double>> metrics;
  return metrics;
}

// Per-stack counter deltas keyed by a bench-chosen label (usually the
// scheduler name). Unlike the global counters, these attribute activity to
// one stack in a multi-stack comparison bench.
inline std::vector<std::pair<std::string, Counters>>& StackDeltas() {
  static std::vector<std::pair<std::string, Counters>> deltas;
  return deltas;
}

inline void PrintCountersObject(const Counters& c) {
  const char* sep = "{";
#define SPLITIO_COUNTER_PRINT(name)                    \
  std::printf("%s\"" #name "\":%llu", sep,             \
              static_cast<unsigned long long>(c.name)); \
  sep = ",";
  SPLITIO_COUNTER_FIELDS(SPLITIO_COUNTER_PRINT)
#undef SPLITIO_COUNTER_PRINT
  std::printf("}");
}

inline void PrintJsonLine() {
  // If the binary was run with --trace, fold the captured events into spans
  // now: writes the JSONL file(s) and appends the per-layer / per-cause
  // percentile metrics. A tracing-off run appends nothing here, keeping the
  // line deterministic.
  for (auto& metric : obs::FinalizeGlobalTrace()) {
    Metrics().push_back(std::move(metric));
  }
  // Same contract for --metrics: write the timeline files and append the
  // bounded `timeline_*` summary; a metrics-off run appends nothing.
  for (auto& metric : obs::FinalizeGlobalMetrics()) {
    Metrics().push_back(std::move(metric));
  }
  const Counters& c = counters();
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  std::printf("BENCHJSON {\"events_processed\":%llu,\"seed\":%llu,"
              "\"counters\":",
              u(c.sim_events), u(GlobalSeed()));
  PrintCountersObject(c);
  std::printf(",\"metrics\":{");
  const auto& metrics = Metrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\":%.17g", i > 0 ? "," : "", metrics[i].first.c_str(),
                metrics[i].second);
  }
  std::printf("}");
  // Emitted only when a bench recorded per-stack deltas, so the BENCHJSON
  // line of every bench that doesn't is byte-identical to before.
  const auto& stacks = StackDeltas();
  if (!stacks.empty()) {
    std::printf(",\"per_stack\":{");
    for (size_t i = 0; i < stacks.size(); ++i) {
      std::printf("%s\"%s\":", i > 0 ? "," : "", stacks[i].first.c_str());
      PrintCountersObject(stacks[i].second);
    }
    std::printf("}");
  }
  std::printf("}\n");
  std::fflush(stdout);
}

struct AtExitRegistrar {
  AtExitRegistrar() {
    // Force construction of the metrics vector before registering the hook:
    // atexit handlers and static destructors run in reverse registration
    // order, so the vectors must be constructed first to still be alive when
    // PrintJsonLine runs.
    Metrics();
    StackDeltas();
    std::atexit(&PrintJsonLine);
  }
};

// One instance per binary (inline variable: shared across TUs).
inline AtExitRegistrar g_registrar;

}  // namespace benchreport

// Exposes a named figure/table-level result (e.g. recovery seconds, p99
// latency) in the bench's BENCHJSON line, alongside the automatic counters.
inline void ReportMetric(const std::string& name, double value) {
  benchreport::Metrics().emplace_back(name, value);
}

// Exposes one stack's counter delta in the BENCHJSON line, under
// "per_stack":{"<label>":{...}}. Benches that compare several schedulers
// snapshot the globals around each stack (see StackCounterScope in
// harness.h) so the report attributes work per scheduler rather than only
// binary-wide.
inline void ReportStackCounters(const std::string& label,
                                const Counters& delta) {
  benchreport::StackDeltas().emplace_back(label, delta);
}

}  // namespace splitio

#endif  // BENCH_COMMON_REPORT_H_
