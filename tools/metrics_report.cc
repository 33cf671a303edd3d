// metrics_report: offline renderer and regression gate for the timeline
// JSONL files the bench binaries write under --metrics (src/obs/metrics).
//
// Usage:
//   metrics_report TIMELINES.jsonl
//   metrics_report --diff OLD.jsonl NEW.jsonl [--tolerance NAME=FRACTION]...
//
// Single-file mode prints, per scheduler label, the gauge series (samples,
// peak, average, last), the latency histogram sketches (count and p50 /
// p99 / p99.9 / max in ms), and the SLO burn-rate alert summaries.
//
// Diff mode aligns the two files by (label, series name) and gates on
// *increases* in per-series peak and average, histogram p99.9, and
// burn-alert window counts — `new > old * (1 + tol) + atol`, tolerance per
// metric name (default 10%, override with `--tolerance swq_depth=0.5`; a
// bare `--tolerance 0.2` changes the default). A series present in OLD but
// missing from NEW also gates: losing a timeline is how regressions hide.
// Every offender is printed with its label, metric, and numbers
// (tools/report_common.h), and the exit code is 1 so CI can gate on it —
// e.g. a queue-depth timeline regression fails the metrics_smoke ctest.
//
// Standalone like trace_stats: compact one-object-per-line JSON is parsed
// with string searches, no splitio dependency.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tools/report_common.h"

namespace {

struct SeriesRec {
  std::string unit;
  double period_ns = 0;
  double samples = 0;
  double peak = 0;
  double avg = 0;
  double last = 0;
};

struct HistRec {
  double count = 0;
  double min_ns = 0;
  double max_ns = 0;
  double p50_ns = 0;
  double p99_ns = 0;
  double p999_ns = 0;
};

struct AlertRec {
  double window_ns = 0;
  double target_ns = 0;
  double budget = 0;
  double windows = 0;
  double alert_windows = 0;
  double first_alert_ns = -1;
  double worst_fraction = 0;
};

// Keyed by "label/name"; std::map keeps output and diffs stable.
struct MetricsFile {
  std::map<std::string, SeriesRec> series;
  std::map<std::string, HistRec> hists;
  std::map<std::string, AlertRec> alerts;
};

using report::FindNumber;
using report::FindString;

bool Load(const std::string& path, MetricsFile* out) {
  std::ifstream in(path);
  if (!in.good()) {
    std::fprintf(stderr, "metrics_report: cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    std::string type;
    std::string label;
    std::string name;
    if (!FindString(line, "type", &type)) {
      continue;
    }
    if (type == "meta") {
      continue;
    }
    FindString(line, "label", &label);
    FindString(line, "name", &name);
    std::string key = label + "/" + name;
    if (type == "series") {
      SeriesRec& s = out->series[key];
      FindString(line, "unit", &s.unit);
      FindNumber(line, "period_ns", &s.period_ns);
      FindNumber(line, "samples", &s.samples);
      FindNumber(line, "peak", &s.peak);
      FindNumber(line, "avg", &s.avg);
      FindNumber(line, "last", &s.last);
    } else if (type == "hist") {
      HistRec& h = out->hists[key];
      FindNumber(line, "count", &h.count);
      FindNumber(line, "min_ns", &h.min_ns);
      FindNumber(line, "max_ns", &h.max_ns);
      FindNumber(line, "p50_ns", &h.p50_ns);
      FindNumber(line, "p99_ns", &h.p99_ns);
      FindNumber(line, "p999_ns", &h.p999_ns);
    } else if (type == "alerts") {
      AlertRec& a = out->alerts[key];
      FindNumber(line, "window_ns", &a.window_ns);
      FindNumber(line, "target_ns", &a.target_ns);
      FindNumber(line, "budget", &a.budget);
      FindNumber(line, "windows", &a.windows);
      FindNumber(line, "alert_windows", &a.alert_windows);
      FindNumber(line, "first_alert_ns", &a.first_alert_ns);
      FindNumber(line, "worst_fraction", &a.worst_fraction);
    }
  }
  return true;
}

double Ms(double ns) { return ns / 1e6; }

int PrintReport(const std::string& path) {
  MetricsFile f;
  if (!Load(path, &f)) {
    return 2;
  }
  if (f.series.empty() && f.hists.empty() && f.alerts.empty()) {
    std::fprintf(stderr, "metrics_report: no timelines in %s\n", path.c_str());
    return 2;
  }
  std::printf("%s: %zu series, %zu histograms, %zu alert summaries\n",
              path.c_str(), f.series.size(), f.hists.size(), f.alerts.size());
  if (!f.series.empty()) {
    std::printf("\n%-40s %-6s %8s %10s %10s %10s\n", "series", "unit",
                "samples", "peak", "avg", "last");
    for (const auto& [key, s] : f.series) {
      std::printf("%-40s %-6s %8.0f %10.3f %10.3f %10.3f\n", key.c_str(),
                  s.unit.c_str(), s.samples, s.peak, s.avg, s.last);
    }
  }
  if (!f.hists.empty()) {
    std::printf("\n%-40s %8s %10s %10s %10s %10s\n", "histogram", "count",
                "p50(ms)", "p99(ms)", "p99.9(ms)", "max(ms)");
    for (const auto& [key, h] : f.hists) {
      std::printf("%-40s %8.0f %10.3f %10.3f %10.3f %10.3f\n", key.c_str(),
                  h.count, Ms(h.p50_ns), Ms(h.p99_ns), Ms(h.p999_ns),
                  Ms(h.max_ns));
    }
  }
  if (!f.alerts.empty()) {
    std::printf("\n%-40s %10s %8s %7s %9s %10s\n", "alert", "target(ms)",
                "windows", "alerts", "first(s)", "worst-frac");
    for (const auto& [key, a] : f.alerts) {
      std::printf("%-40s %10.1f %8.0f %7.0f %9.2f %10.4f\n", key.c_str(),
                  Ms(a.target_ns), a.windows, a.alert_windows,
                  a.first_alert_ns < 0 ? -1.0 : a.first_alert_ns / 1e9,
                  a.worst_fraction);
    }
  }
  return 0;
}

// Strips the "label/" prefix: tolerances are keyed by metric name so one
// `--tolerance swq_depth=0.5` covers that gauge under every scheduler.
std::string MetricName(const std::string& key) {
  size_t slash = key.rfind('/');
  return slash == std::string::npos ? key : key.substr(slash + 1);
}

int Diff(const std::string& old_path, const std::string& new_path,
         const report::Tolerances& tol) {
  MetricsFile o;
  MetricsFile n;
  if (!Load(old_path, &o) || !Load(new_path, &n)) {
    return 2;
  }
  std::printf("diff: %s -> %s (default tolerance %.0f%% + %.2f absolute)\n",
              old_path.c_str(), new_path.c_str(), tol.def * 100, tol.atol);
  std::vector<report::Offender> offenders;
  auto gate = [&](const std::string& key, const char* what, double oldv,
                  double newv, const std::string& unit) {
    double t = tol.For(MetricName(key));
    if (report::GateIncrease(oldv, newv, t, tol.atol)) {
      offenders.push_back({key + " " + what, oldv, newv, t, unit});
    }
  };
  for (const auto& [key, os] : o.series) {
    auto it = n.series.find(key);
    if (it == n.series.end()) {
      offenders.push_back({key + " (missing in new)", os.peak, 0,
                           tol.For(MetricName(key)), os.unit});
      continue;
    }
    gate(key, "peak", os.peak, it->second.peak, os.unit);
    gate(key, "avg", os.avg, it->second.avg, os.unit);
  }
  for (const auto& [key, oh] : o.hists) {
    auto it = n.hists.find(key);
    if (it == n.hists.end()) {
      offenders.push_back({key + " (missing in new)", Ms(oh.p999_ns), 0,
                           tol.For(MetricName(key)), "ms"});
      continue;
    }
    gate(key, "p999", Ms(oh.p999_ns), Ms(it->second.p999_ns), "ms");
  }
  for (const auto& [key, oa] : o.alerts) {
    auto it = n.alerts.find(key);
    if (it == n.alerts.end()) {
      continue;  // alerts only exist for runs with SLO'd groups
    }
    gate(key, "alert_windows", oa.alert_windows, it->second.alert_windows,
         "windows");
  }
  std::printf("compared %zu series, %zu histograms, %zu alert summaries\n",
              o.series.size(), o.hists.size(), o.alerts.size());
  if (!offenders.empty()) {
    report::PrintOffenders(offenders);
    std::printf("%zu timeline metric(s) regressed beyond tolerance\n",
                offenders.size());
    return 1;
  }
  std::printf("no timeline regression beyond tolerance\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string diff_old;
  std::string diff_new;
  std::string file;
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
    } else if (arg == "--tolerance") {
      std::string spec = next("--tolerance");
      if (!tol.ParseFlag(spec)) {
        std::fprintf(stderr, "bad --tolerance spec: %s\n", spec.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: metrics_report TIMELINES.jsonl\n"
                  "       metrics_report --diff OLD.jsonl NEW.jsonl"
                  " [--tolerance NAME=FRACTION]...\n");
      return 0;
    } else {
      file = arg;
    }
  }
  if (!diff_old.empty()) {
    return Diff(diff_old, diff_new, tol);
  }
  if (file.empty()) {
    std::fprintf(stderr, "no metrics file given (see --help)\n");
    return 2;
  }
  return PrintReport(file);
}
