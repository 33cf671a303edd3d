// Trace listener registry and the in-memory TraceSink.
//
// Zero-overhead-when-off contract: every instrumentation site in the stack
// guards its event construction with
//
//   if (obs::TracingActive()) { ... build event ... obs::EmitEvent(...); }
//
// `TracingActive()` is an inline load-and-compare of a process-global
// listener count, so a tracing-off run pays one predictable branch per
// site and never allocates, and the simulated schedule is untouched (the
// check performs no simulator interaction). Building with
// -DSPLITIO_DISABLE_TRACING turns the guard into `if (false)` and the
// compiler removes the instrumentation entirely (figure-bench builds that
// want the guarantee at the instruction level).
//
// Listeners are process-global, matching the counters in src/metrics: a
// bench binary runs one stack per scheduler and a single sink sees them
// all, with the active bench scope recorded per event via the label
// registry (StackCounterScope pushes the scheduler name).
#ifndef SRC_OBS_TRACE_SINK_H_
#define SRC_OBS_TRACE_SINK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace_event.h"

namespace splitio {
namespace obs {

#ifdef SPLITIO_DISABLE_TRACING
inline constexpr bool kTracingCompiled = false;
#else
inline constexpr bool kTracingCompiled = true;
#endif

// Number of attached listeners; maintained by Attach/DetachListener.
// Inline variable so the hot-path check below compiles to one load.
inline thread_local int g_trace_listener_count = 0;

// True when at least one listener is attached (and tracing is compiled
// in). Instrumentation sites must check this before building an event.
inline bool TracingActive() {
  return kTracingCompiled && g_trace_listener_count > 0;
}

class TraceListener {
 public:
  virtual ~TraceListener() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

// Registers / removes a listener (idempotent: double-attach and detach of
// an unattached listener are no-ops). Not owned.
void AttachListener(TraceListener* listener);
void DetachListener(TraceListener* listener);

// Stamps the simulated time and the current label, then fans the event out
// to every attached listener. Only call under TracingActive() and inside a
// running Simulator.
void EmitEvent(TraceEvent event);

// ---- Label registry ----
// Interned bench-scope labels (scheduler names). Index 0 is the empty
// label. StackCounterScope (bench/common/harness.h) pushes the scheduler
// name for the stack's lifetime so every event carries its scope.
uint16_t InternLabel(const std::string& name);
const std::string& LabelName(uint16_t index);
uint16_t CurrentLabel();
void SetCurrentLabel(uint16_t index);

// RAII label scope; nests (restores the previous label on destruction).
class ScopedTraceLabel {
 public:
  explicit ScopedTraceLabel(const std::string& name)
      : prev_(CurrentLabel()) {
    SetCurrentLabel(InternLabel(name));
  }
  ~ScopedTraceLabel() { SetCurrentLabel(prev_); }
  ScopedTraceLabel(const ScopedTraceLabel&) = delete;
  ScopedTraceLabel& operator=(const ScopedTraceLabel&) = delete;

 private:
  uint16_t prev_;
};

// ---- Request identity ----
// Process-wide block-request id sequence (1-based; 0 means "no id").
// Assigned by BlockLayer::Submit and threaded through DeviceRequest so
// device-level events correlate with block-level ones.
inline thread_local uint64_t g_request_id_seq = 0;
inline uint64_t AllocRequestId() { return ++g_request_id_seq; }

// In-memory recorder: appends every event to a vector. The base listener
// for tests and the span builder (BuildSpans, SplitByCause).
class TraceSink : public TraceListener {
 public:
  TraceSink() = default;
  ~TraceSink() override { Detach(); }
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void Attach() {
    if (!attached_) {
      AttachListener(this);
      attached_ = true;
    }
  }
  void Detach() {
    if (attached_) {
      DetachListener(this);
      attached_ = false;
    }
  }
  bool attached() const { return attached_; }

  void OnEvent(const TraceEvent& event) override {
    events_.push_back(event);
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  void Clear() { events_.clear(); }

 private:
  bool attached_ = false;
  std::vector<TraceEvent> events_;
};

}  // namespace obs
}  // namespace splitio

#endif  // SRC_OBS_TRACE_SINK_H_
