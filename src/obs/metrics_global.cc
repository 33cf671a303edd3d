#include "src/obs/metrics_global.h"

#include <cstdio>
#include <fstream>

#include "src/obs/metrics.h"

namespace splitio {
namespace obs {

namespace {

struct GlobalMetrics {
  MetricsHub hub;
  std::string jsonl_path;
  std::string csv_path;
  bool finalized = false;
};

// Heap-allocated and intentionally leaked, for the same atexit-ordering
// reason as trace_global.cc's GlobalTrace.
GlobalMetrics* g_metrics = nullptr;

}  // namespace

void EnableGlobalMetrics(const std::string& jsonl_path,
                         const std::string& csv_path, Nanos period) {
  if (g_metrics != nullptr) {
    return;
  }
  if (!kMetricsCompiled) {
    std::fprintf(stderr,
                 "warning: --metrics ignored (built with "
                 "SPLITIO_DISABLE_METRICS)\n");
    return;
  }
  g_metrics = new GlobalMetrics;
  g_metrics->jsonl_path = jsonl_path;
  g_metrics->csv_path = csv_path;
  if (period > 0) {
    MetricsConfig config;
    config.period = period;
    g_metrics->hub.Configure(config);
  }
  g_metrics_hub = &g_metrics->hub;
  set_sample_hook(&g_metrics->hub);
}

bool GlobalMetricsConfigured() { return g_metrics != nullptr; }

std::vector<std::pair<std::string, double>> FinalizeGlobalMetrics() {
  if (g_metrics == nullptr || g_metrics->finalized) {
    return {};
  }
  g_metrics->finalized = true;
  if (g_metrics_hub == &g_metrics->hub) {
    g_metrics_hub = nullptr;
  }
  if (sample_hook() == &g_metrics->hub) {
    set_sample_hook(nullptr);
  }
  const MetricsHub& hub = g_metrics->hub;
  if (hub.series().empty() && hub.histograms().empty() &&
      hub.alerts().empty()) {
    std::fprintf(stderr,
                 "warning: --metrics recorded nothing (runs inside "
                 "ShardGroup shards are untraced, DESIGN.md §11)\n");
  }
  if (!g_metrics->jsonl_path.empty()) {
    std::ofstream out(g_metrics->jsonl_path);
    if (out) {
      g_metrics->hub.WriteJsonl(out);
    } else {
      std::fprintf(stderr, "warning: cannot write metrics to %s\n",
                   g_metrics->jsonl_path.c_str());
    }
  }
  if (!g_metrics->csv_path.empty()) {
    std::ofstream out(g_metrics->csv_path);
    if (out) {
      g_metrics->hub.WriteCsv(out);
    } else {
      std::fprintf(stderr, "warning: cannot write metrics CSV to %s\n",
                   g_metrics->csv_path.c_str());
    }
  }
  return g_metrics->hub.Summary();
}

}  // namespace obs
}  // namespace splitio
