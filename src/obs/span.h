// Span builder: folds a trace event stream into per-request lifecycle
// records with per-layer residency times.
//
// A span covers one block request from the moment its work entered the
// system to completion:
//
//   cache_entered .. added     in_cache     (dirty page waiting in memory —
//                                            earliest dirtied_at among the
//                                            pages the write covers)
//   txn_joined .. added        in_journal   (jbd2 transaction / XFS log
//                                            item pinned before the record
//                                            write reached the elevator)
//   queued .. added            in_swq       (context staging FIFO, two or
//                                            more dispatch contexts only)
//   added .. dispatched        in_elevator  (scheduler-held)
//   dev_start .. dev_done      on_device    (modeled service; falls back to
//                                            the reported service time for
//                                            merged children and flushes)
//
// Spans are exported as JSONL (one object per line, parseable by
// tools/trace_stats and anything that reads NDJSON), summarized into
// per-layer and per-cause latency percentiles for BENCHJSON, and split
// into per-cause device time and bytes (SplitByCause).
#ifndef SRC_OBS_SPAN_H_
#define SRC_OBS_SPAN_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace_event.h"

namespace splitio {
namespace obs {

struct RequestSpan {
  uint64_t id = 0;
  uint16_t label = 0;        // bench scope (scheduler name) at elv_add
  int32_t submitter = -1;
  int64_t ino = -1;
  uint64_t sector = 0;
  uint32_t bytes = 0;
  uint8_t flags = 0;         // kFlagWrite/Sync/Journal/Flush
  bool merged = false;       // back-merged into an earlier request
  int result = 0;
  uint64_t journal_tid = 0;

  // Lifecycle timestamps (0 = stage not observed).
  Nanos cache_entered = 0;   // earliest dirtied_at behind this write
  Nanos txn_joined = 0;      // first txn_join of this request's tid
  Nanos queued = 0;          // mq software-queue arrival
  Nanos added = 0;           // elevator add (or merge)
  Nanos dispatched = 0;      // elevator released it
  Nanos dev_start = 0;
  Nanos dev_done = 0;
  Nanos completed = 0;
  Nanos service = 0;         // modeled device service time

  std::vector<int32_t> causes;

  // Per-layer residencies. Stages that were not observed contribute 0.
  Nanos in_cache() const {
    return cache_entered > 0 && added >= cache_entered ? added - cache_entered
                                                       : 0;
  }
  Nanos in_journal() const {
    return txn_joined > 0 && added >= txn_joined ? added - txn_joined : 0;
  }
  Nanos in_swq() const {
    return queued > 0 && added >= queued ? added - queued : 0;
  }
  Nanos in_elevator() const {
    if (dispatched >= added && dispatched > 0) {
      return dispatched - added;
    }
    // Merged children are never dispatched themselves: they wait in the
    // elevator until their container completes.
    if (merged && completed >= added) {
      Nanos waited = completed - added - on_device();
      return waited > 0 ? waited : 0;
    }
    return 0;
  }
  Nanos on_device() const {
    if (dev_done > 0 && dev_done >= dev_start && dev_start > 0) {
      return dev_done - dev_start;
    }
    return service;  // flushes / merged children: modeled service only
  }
  // Block-layer latency: submission (elevator add) to completion.
  Nanos total() const { return completed >= added ? completed - added : 0; }
};

// Folds events into one span per completed request, ordered by request id
// (allocation order == submission order). Unfinished requests (no
// blk_complete) are dropped — a horizon-stopped run strands in-flight I/O.
std::vector<RequestSpan> BuildSpans(const std::vector<TraceEvent>& events);

// One JSON object per span. Residencies are precomputed fields so
// downstream tools need no lifecycle knowledge.
void WriteSpansJsonl(const std::vector<RequestSpan>& spans,
                     std::ostream& out);

// One JSON object per raw event (the blktrace-style view).
void WriteEventsJsonl(const std::vector<TraceEvent>& events,
                      std::ostream& out);

// Device time and traffic attributed to one cause pid.
struct CauseShare {
  uint64_t requests = 0;
  uint64_t bytes = 0;
  Nanos device_time = 0;  // modeled service time (RequestSpan::service)
};

// Per-cause split of device time and bytes: a request shared by n causes
// gives each an even share, and the first `remainder` causes one extra
// ns/byte, so per-cause totals sum exactly to the per-request totals.
// Spans without causes are skipped.
std::map<int32_t, CauseShare> SplitByCause(
    const std::vector<RequestSpan>& spans);

// Per-layer and per-cause latency summary, flattened to (name, value)
// metric pairs for the BENCHJSON "metrics" object:
//   trace_spans, trace_<layer>_{p50,p95,p99}_ms for each layer with any
//   nonzero residency, and trace_cause<pid>_total_{p50,p95,p99}_ms for the
//   per-cause block-layer latency distribution.
std::vector<std::pair<std::string, double>> SummarizeSpans(
    const std::vector<RequestSpan>& spans);

}  // namespace obs
}  // namespace splitio

#endif  // SRC_OBS_SPAN_H_
