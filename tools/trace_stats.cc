// trace_stats: offline analyzer for the span JSONL files the bench binaries
// write under --trace (see src/obs and bench/common/flags.h).
//
// Usage:
//   trace_stats SPANS.jsonl
//   trace_stats --diff OLD.jsonl NEW.jsonl [--threshold FRACTION]
//               [--tolerance LAYER=FRACTION]...
//
// Single-file mode prints, per scheduler label, a per-layer residency table
// (count / mean / p50 / p95 / p99 / p99.9 ms for cache, journal, software queue,
// elevator, device, and end-to-end). Diff mode aligns two traces by
// scheduler label and reports the change in mean residency per layer; it
// exits non-zero if any scheduler's end-to-end mean regressed by more than
// --threshold (default 0.25), or any layer given an explicit
// `--tolerance layer=frac` (e.g. `--tolerance device=0.15`) regressed
// beyond it. Every gated regression is reported by name —
// "sched/layer: old -> new" — through the shared per-metric tolerance
// machinery (tools/report_common.h, also used by metrics_report), so a CI
// failure says *which* scheduler and layer drifted.
//
// Like bench_runner, this tool is standalone (no splitio dependency) and
// parses the compact one-object-per-line JSON the span writer emits with
// string searches rather than a JSON library.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "tools/report_common.h"

namespace {

// The residency fields WriteSpansJsonl emits, in stack order.
constexpr const char* kLayerFields[] = {
    "in_cache_ns", "in_journal_ns", "in_swq_ns",
    "in_elevator_ns", "on_device_ns", "total_ns",
};
constexpr const char* kLayerNames[] = {
    "cache", "journal", "swq", "elevator", "device", "total",
};
constexpr size_t kLayers = sizeof(kLayerFields) / sizeof(kLayerFields[0]);

struct LayerSamples {
  std::vector<double> ms;  // one sample per span, already in milliseconds
  double sum_ms = 0;

  void Add(double v) {
    ms.push_back(v);
    sum_ms += v;
  }
  double Mean() const {
    return ms.empty() ? 0 : sum_ms / static_cast<double>(ms.size());
  }
  // Nearest-rank (ceil) on the sorted samples — the same definition as
  // LatencyRecorder::Percentile, so trace_stats and BENCHJSON percentiles
  // agree on identical sample sets. Callers sort once via Finish().
  double Percentile(double p) const {
    if (ms.empty()) {
      return 0;
    }
    if (p <= 0) {
      return ms.front();
    }
    double rank = p / 100.0 * static_cast<double>(ms.size());
    auto idx = static_cast<size_t>(std::ceil(rank));
    idx = std::min(std::max<size_t>(idx, 1), ms.size());
    return ms[idx - 1];
  }
  void Finish() { std::sort(ms.begin(), ms.end()); }
};

struct SchedStats {
  uint64_t spans = 0;
  LayerSamples layers[kLayers];
};

using report::FindNumber;
using report::FindString;

// Loads a span JSONL file into per-scheduler-label layer samples. The map is
// ordered so output (and diffs) are stable across runs.
std::map<std::string, SchedStats> Load(const std::string& path, bool* ok) {
  std::map<std::string, SchedStats> by_sched;
  std::ifstream in(path);
  *ok = in.good();
  if (!*ok) {
    std::fprintf(stderr, "trace_stats: cannot open %s\n", path.c_str());
    return by_sched;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::string sched;
    if (!FindString(line, "sched", &sched)) {
      continue;  // not a span line
    }
    if (sched.empty()) {
      sched = "(unlabeled)";
    }
    SchedStats& stats = by_sched[sched];
    ++stats.spans;
    for (size_t i = 0; i < kLayers; ++i) {
      double ns = 0;
      FindNumber(line, kLayerFields[i], &ns);
      stats.layers[i].Add(ns / 1e6);
    }
  }
  for (auto& [sched, stats] : by_sched) {
    (void)sched;
    for (LayerSamples& layer : stats.layers) {
      layer.Finish();
    }
  }
  return by_sched;
}

int PrintStats(const std::string& path) {
  bool ok = false;
  auto by_sched = Load(path, &ok);
  if (!ok) {
    return 2;
  }
  if (by_sched.empty()) {
    std::fprintf(stderr, "trace_stats: no spans in %s\n", path.c_str());
    return 2;
  }
  uint64_t total_spans = 0;
  for (const auto& [sched, stats] : by_sched) {
    (void)sched;
    total_spans += stats.spans;
  }
  std::printf("%s: %llu spans, %zu scheduler label(s)\n", path.c_str(),
              static_cast<unsigned long long>(total_spans), by_sched.size());
  for (const auto& [sched, stats] : by_sched) {
    std::printf("\n-- %s (%llu spans) --\n", sched.c_str(),
                static_cast<unsigned long long>(stats.spans));
    std::printf("%10s %10s %10s %10s %10s %10s %8s\n", "layer", "mean(ms)",
                "p50(ms)", "p95(ms)", "p99(ms)", "p99.9(ms)", "share");
    double total_mean = stats.layers[kLayers - 1].Mean();
    for (size_t i = 0; i < kLayers; ++i) {
      const LayerSamples& layer = stats.layers[i];
      double share = total_mean > 0 && i + 1 < kLayers
                         ? 100.0 * layer.Mean() / total_mean
                         : 100.0;
      std::printf("%10s %10.3f %10.3f %10.3f %10.3f %10.3f %7.1f%%\n",
                  kLayerNames[i], layer.Mean(), layer.Percentile(50),
                  layer.Percentile(95), layer.Percentile(99),
                  layer.Percentile(99.9), share);
    }
  }
  std::printf("\n(share = layer mean / end-to-end mean; layers overlap the "
              "queue residencies, so shares need not sum to 100%%.)\n");
  return 0;
}

int Diff(const std::string& old_path, const std::string& new_path,
         double threshold, const report::Tolerances& tol) {
  bool old_ok = false;
  bool new_ok = false;
  auto olds = Load(old_path, &old_ok);
  auto news = Load(new_path, &new_ok);
  if (!old_ok || !new_ok) {
    return 2;
  }
  std::printf("diff: %s -> %s (regression threshold %.0f%% on end-to-end "
              "mean)\n",
              old_path.c_str(), new_path.c_str(), threshold * 100);
  std::vector<report::Offender> offenders;
  for (const auto& [sched, n] : news) {
    auto it = olds.find(sched);
    if (it == olds.end()) {
      std::printf("\n-- %s: only in %s (%llu spans) --\n", sched.c_str(),
                  new_path.c_str(), static_cast<unsigned long long>(n.spans));
      continue;
    }
    const SchedStats& o = it->second;
    std::printf("\n-- %s (%llu -> %llu spans) --\n", sched.c_str(),
                static_cast<unsigned long long>(o.spans),
                static_cast<unsigned long long>(n.spans));
    std::printf("%10s %12s %12s %9s\n", "layer", "old-mean(ms)",
                "new-mean(ms)", "delta");
    for (size_t i = 0; i < kLayers; ++i) {
      double om = o.layers[i].Mean();
      double nm = n.layers[i].Mean();
      double delta = om > 0 ? (nm - om) / om : 0;
      // End-to-end always gates at --threshold; other layers gate only when
      // the caller named them with --tolerance (so the default behavior —
      // per-layer drift is informational — is unchanged).
      bool end_to_end = i + 1 == kLayers;
      auto named = tol.by_name.find(kLayerNames[i]);
      double gate_at = end_to_end ? threshold
                       : named != tol.by_name.end() ? named->second
                                                    : -1;
      bool regressed =
          gate_at >= 0 && om > 0 && report::GateIncrease(om, nm, gate_at, 0);
      if (regressed) {
        offenders.push_back({std::string(sched) + "/" + kLayerNames[i], om,
                             nm, gate_at, "ms mean"});
      }
      std::printf("%10s %12.3f %12.3f %+8.1f%%%s\n", kLayerNames[i], om, nm,
                  delta * 100, regressed ? "  REGRESSION" : "");
    }
  }
  for (const auto& [sched, o] : olds) {
    if (news.find(sched) == news.end()) {
      std::printf("\n-- %s: only in %s (%llu spans) --\n", sched.c_str(),
                  old_path.c_str(), static_cast<unsigned long long>(o.spans));
    }
  }
  if (!offenders.empty()) {
    std::printf("\n%zu scheduler/layer pair(s) regressed beyond tolerance:\n",
                offenders.size());
    report::PrintOffenders(offenders);
    return 1;
  }
  std::printf("\nno end-to-end regression beyond %.0f%%\n", threshold * 100);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string diff_old;
  std::string diff_new;
  std::string trace;
  double threshold = 0.25;
  report::Tolerances tol;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--diff") {
      diff_old = next("--diff");
      diff_new = next("--diff");
    } else if (arg == "--threshold") {
      threshold = std::strtod(next("--threshold").c_str(), nullptr);
    } else if (arg == "--tolerance") {
      std::string spec = next("--tolerance");
      if (!tol.ParseFlag(spec)) {
        std::fprintf(stderr, "bad --tolerance spec: %s\n", spec.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: trace_stats SPANS.jsonl\n"
                  "       trace_stats --diff OLD.jsonl NEW.jsonl "
                  "[--threshold FRACTION] [--tolerance LAYER=FRACTION]...\n");
      return 0;
    } else {
      trace = arg;
    }
  }
  if (!diff_old.empty()) {
    return Diff(diff_old, diff_new, threshold, tol);
  }
  if (trace.empty()) {
    std::fprintf(stderr, "no trace given (see --help)\n");
    return 2;
  }
  return PrintStats(trace);
}
