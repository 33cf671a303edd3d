// Shared by the offline report tools (tools/metrics_report,
// tools/trace_stats): compact-JSONL field scanners and per-metric tolerance
// gating. Standalone — no splitio dependency — like the tools that include
// it.
//
// A diff gates on *increases* only: `new > old * (1 + tol) + atol`. The
// relative tolerance absorbs proportional noise; the absolute floor keeps
// tiny denominators (an old mean of 0.001 ms, a queue-depth peak of 1) from
// turning round-off into a regression verdict. Tolerances are per metric
// name with a default, overridable from the command line as
// `--tolerance NAME=FRACTION`; every gated offender carries the metric's
// name and the numbers, so CI failures say *what* regressed, not just that
// something did.
#ifndef TOOLS_REPORT_COMMON_H_
#define TOOLS_REPORT_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace report {

// Finds `"key":<number>` in a compact JSONL line. Returns false if absent.
inline bool FindNumber(const std::string& line, const char* key,
                       double* out) {
  std::string needle = std::string("\"") + key + "\":";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

// Finds `"key":"value"` in a compact JSONL line.
inline bool FindString(const std::string& line, const char* key,
                       std::string* out) {
  std::string needle = std::string("\"") + key + "\":\"";
  size_t pos = line.find(needle);
  if (pos == std::string::npos) {
    return false;
  }
  size_t start = pos + needle.size();
  size_t end = line.find('"', start);
  if (end == std::string::npos) {
    return false;
  }
  *out = line.substr(start, end - start);
  return true;
}

struct Tolerances {
  double def = 0.10;   // default relative tolerance
  double atol = 0.25;  // absolute slack added on top (metric units)
  std::map<std::string, double> by_name;

  double For(const std::string& name) const {
    auto it = by_name.find(name);
    return it != by_name.end() ? it->second : def;
  }

  // Parses "NAME=FRACTION" (a bare "FRACTION" sets the default). Returns
  // false on a malformed spec.
  bool ParseFlag(const std::string& spec) {
    size_t eq = spec.find('=');
    char* end = nullptr;
    if (eq == std::string::npos) {
      double v = std::strtod(spec.c_str(), &end);
      if (end == spec.c_str() || *end != '\0') {
        return false;
      }
      def = v;
      return true;
    }
    std::string name = spec.substr(0, eq);
    std::string value = spec.substr(eq + 1);
    double v = std::strtod(value.c_str(), &end);
    if (name.empty() || end == value.c_str() || *end != '\0') {
      return false;
    }
    by_name[name] = v;
    return true;
  }
};

// True when `newv` exceeds `oldv` beyond the allowed increase.
inline bool GateIncrease(double oldv, double newv, double tol, double atol) {
  return newv > oldv * (1.0 + tol) + atol;
}

// One gated regression: which metric, where, and by how much.
struct Offender {
  std::string name;  // "sched/metric" or "sched/layer"
  double oldv = 0;
  double newv = 0;
  double tol = 0;
  std::string unit;
};

inline void PrintOffenders(const std::vector<Offender>& offenders) {
  for (const Offender& o : offenders) {
    double delta = o.oldv > 0 ? (o.newv - o.oldv) / o.oldv * 100.0 : 0.0;
    std::printf("  REGRESSION %s: %.3f -> %.3f %s (%+.1f%% > %.0f%%)\n",
                o.name.c_str(), o.oldv, o.newv, o.unit.c_str(), delta,
                o.tol * 100.0);
  }
}

}  // namespace report

#endif  // TOOLS_REPORT_COMMON_H_
