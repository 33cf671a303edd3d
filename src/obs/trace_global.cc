#include "src/obs/trace_global.h"

#include <cstdio>
#include <fstream>

#include "src/obs/span.h"
#include "src/obs/trace_sink.h"

namespace splitio {
namespace obs {

namespace {

struct GlobalTrace {
  TraceSink sink;
  std::string spans_path;
  std::string events_path;
  bool finalized = false;
};

// Heap-allocated and intentionally leaked: FinalizeGlobalTrace runs from an
// atexit hook, after static destructors of later-loaded TUs may already
// have run — the sink must not be a static object with a destructor (the
// same ordering hazard report.h's AtExitRegistrar documents).
GlobalTrace* g_trace = nullptr;

}  // namespace

void EnableGlobalTrace(const std::string& spans_path,
                       const std::string& events_path) {
  if (g_trace != nullptr) {
    return;
  }
  if (!kTracingCompiled) {
    std::fprintf(stderr,
                 "warning: --trace ignored (built with "
                 "SPLITIO_DISABLE_TRACING)\n");
    return;
  }
  g_trace = new GlobalTrace;
  g_trace->spans_path = spans_path;
  g_trace->events_path = events_path;
  g_trace->sink.Attach();
}

bool GlobalTraceConfigured() { return g_trace != nullptr; }

std::vector<std::pair<std::string, double>> FinalizeGlobalTrace() {
  if (g_trace == nullptr || g_trace->finalized) {
    return {};
  }
  g_trace->finalized = true;
  g_trace->sink.Detach();
  const std::vector<TraceEvent>& events = g_trace->sink.events();
  if (events.empty()) {
    std::fprintf(stderr,
                 "warning: --trace recorded nothing (runs inside ShardGroup "
                 "shards are untraced, DESIGN.md §11)\n");
  }
  std::vector<RequestSpan> spans = BuildSpans(events);
  if (!g_trace->spans_path.empty()) {
    std::ofstream out(g_trace->spans_path);
    if (out) {
      WriteSpansJsonl(spans, out);
    } else {
      std::fprintf(stderr, "warning: cannot write trace to %s\n",
                   g_trace->spans_path.c_str());
    }
  }
  if (!g_trace->events_path.empty()) {
    std::ofstream out(g_trace->events_path);
    if (out) {
      WriteEventsJsonl(events, out);
    } else {
      std::fprintf(stderr, "warning: cannot write trace events to %s\n",
                   g_trace->events_path.c_str());
    }
  }
  return SummarizeSpans(spans);
}

}  // namespace obs
}  // namespace splitio
