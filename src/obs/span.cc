#include "src/obs/span.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/metrics/stats.h"
#include "src/obs/trace_sink.h"

namespace splitio {
namespace obs {

namespace {

// Transactions are identified by (label, tid): tids restart at 1 in every
// journal instance, and multi-stack benches run one journal per scheduler
// scope, so the bench label disambiguates them.
using TxnKey = std::pair<uint16_t, uint64_t>;

void WriteCauses(const std::vector<int32_t>& causes, std::ostream& out) {
  out << '[';
  for (size_t i = 0; i < causes.size(); ++i) {
    if (i > 0) {
      out << ',';
    }
    out << causes[i];
  }
  out << ']';
}

}  // namespace

std::vector<RequestSpan> BuildSpans(const std::vector<TraceEvent>& events) {
  std::map<TxnKey, Nanos> txn_joined;
  std::map<uint64_t, RequestSpan> spans;  // ordered: id order == submit order
  for (const TraceEvent& e : events) {
    if (e.type == EventType::kTxnJoin) {
      txn_joined.try_emplace(TxnKey(e.label, e.aux), e.time);
      continue;
    }
    if (e.request_id == 0) {
      continue;  // layer event not tied to a block request
    }
    RequestSpan& span = spans[e.request_id];
    span.id = e.request_id;
    switch (e.type) {
      case EventType::kMqQueue:
        span.queued = e.time;
        break;
      case EventType::kElvAdd:
      case EventType::kElvMerge:
        span.label = e.label;
        span.submitter = e.pid;
        span.ino = e.ino;
        span.sector = e.sector;
        span.bytes = e.bytes;
        span.flags = e.flags;
        span.causes = e.causes;
        span.journal_tid = e.aux;
        span.cache_entered = e.t_aux;
        span.added = e.time;
        span.merged = e.type == EventType::kElvMerge;
        if (e.aux != 0) {
          auto it = txn_joined.find(TxnKey(e.label, e.aux));
          if (it != txn_joined.end()) {
            span.txn_joined = it->second;
          }
        }
        break;
      case EventType::kElvDispatch:
        span.dispatched = e.time;
        break;
      case EventType::kMqIssue:
        if (span.dispatched == 0) {
          span.dispatched = e.time;
        }
        break;
      case EventType::kDevStart:
        span.dev_start = e.time;
        break;
      case EventType::kDevDone:
        span.dev_done = e.time;
        if (e.service > 0) {
          span.service = e.service;
        }
        break;
      case EventType::kBlkComplete:
        span.completed = e.time;
        span.result = e.result;
        if (e.service > 0) {
          span.service = e.service;
        }
        if (span.added == 0) {
          // Request completed without an observed add (e.g. the sink was
          // attached mid-run); recover identity from the completion.
          span.label = e.label;
          span.submitter = e.pid;
          span.ino = e.ino;
          span.sector = e.sector;
          span.bytes = e.bytes;
          span.flags = e.flags;
          span.causes = e.causes;
          span.added = e.t_aux;  // enqueue time
        }
        break;
      default:
        break;
    }
  }
  std::vector<RequestSpan> out;
  out.reserve(spans.size());
  for (auto& [id, span] : spans) {
    (void)id;
    if (span.completed > 0) {
      out.push_back(std::move(span));
    }
  }
  return out;
}

void WriteSpansJsonl(const std::vector<RequestSpan>& spans,
                     std::ostream& out) {
  for (const RequestSpan& s : spans) {
    out << "{\"id\":" << s.id << ",\"sched\":\"" << LabelName(s.label)
        << "\",\"submitter\":" << s.submitter << ",\"ino\":" << s.ino
        << ",\"sector\":" << s.sector << ",\"bytes\":" << s.bytes
        << ",\"write\":" << ((s.flags & kFlagWrite) ? 1 : 0)
        << ",\"sync\":" << ((s.flags & kFlagSync) ? 1 : 0)
        << ",\"journal\":" << ((s.flags & kFlagJournal) ? 1 : 0)
        << ",\"flush\":" << ((s.flags & kFlagFlush) ? 1 : 0)
        << ",\"merged\":" << (s.merged ? 1 : 0) << ",\"result\":" << s.result
        << ",\"tid\":" << s.journal_tid << ",\"causes\":";
    WriteCauses(s.causes, out);
    out << ",\"t_cache\":" << s.cache_entered << ",\"t_txn\":" << s.txn_joined
        << ",\"t_queue\":" << s.queued << ",\"t_add\":" << s.added
        << ",\"t_dispatch\":" << s.dispatched
        << ",\"t_dev_start\":" << s.dev_start
        << ",\"t_dev_done\":" << s.dev_done
        << ",\"t_complete\":" << s.completed
        << ",\"service_ns\":" << s.service
        << ",\"in_cache_ns\":" << s.in_cache()
        << ",\"in_journal_ns\":" << s.in_journal()
        << ",\"in_swq_ns\":" << s.in_swq()
        << ",\"in_elevator_ns\":" << s.in_elevator()
        << ",\"on_device_ns\":" << s.on_device()
        << ",\"total_ns\":" << s.total() << "}\n";
  }
}

void WriteEventsJsonl(const std::vector<TraceEvent>& events,
                      std::ostream& out) {
  for (const TraceEvent& e : events) {
    out << "{\"type\":\"" << EventTypeName(e.type) << "\",\"t\":" << e.time
        << ",\"sched\":\"" << LabelName(e.label) << "\",\"pid\":" << e.pid
        << ",\"req\":" << e.request_id << ",\"ino\":" << e.ino
        << ",\"sector\":" << e.sector << ",\"bytes\":" << e.bytes
        << ",\"flags\":" << static_cast<int>(e.flags)
        << ",\"result\":" << e.result << ",\"aux\":" << e.aux
        << ",\"t_aux\":" << e.t_aux << ",\"service_ns\":" << e.service
        << ",\"causes\":";
    WriteCauses(e.causes, out);
    out << "}\n";
  }
}

std::map<int32_t, CauseShare> SplitByCause(
    const std::vector<RequestSpan>& spans) {
  std::map<int32_t, CauseShare> split;
  for (const RequestSpan& s : spans) {
    if (s.causes.empty()) {
      continue;
    }
    // Split evenly, handing the first `remainder` causes one extra unit:
    // integer division alone drops up to n-1 ns/bytes per request.
    auto n = static_cast<uint64_t>(s.causes.size());
    Nanos time_share = s.service / static_cast<Nanos>(n);
    auto time_rem =
        static_cast<uint64_t>(s.service % static_cast<Nanos>(n));
    uint64_t byte_share = s.bytes / n;
    uint64_t byte_rem = s.bytes % n;
    uint64_t i = 0;
    for (int32_t pid : s.causes) {
      CauseShare& share = split[pid];
      ++share.requests;
      share.bytes += byte_share + (i < byte_rem ? 1 : 0);
      share.device_time += time_share + (i < time_rem ? 1 : 0);
      ++i;
    }
  }
  return split;
}

std::vector<std::pair<std::string, double>> SummarizeSpans(
    const std::vector<RequestSpan>& spans) {
  std::vector<std::pair<std::string, double>> out;
  out.emplace_back("trace_spans", static_cast<double>(spans.size()));
  if (spans.empty()) {
    return out;
  }

  struct Layer {
    const char* name;
    Nanos (RequestSpan::*residency)() const;
  };
  static constexpr Layer kLayers[] = {
      {"cache", &RequestSpan::in_cache},
      {"journal", &RequestSpan::in_journal},
      {"swq", &RequestSpan::in_swq},
      {"elevator", &RequestSpan::in_elevator},
      {"device", &RequestSpan::on_device},
      {"total", &RequestSpan::total},
  };
  for (const Layer& layer : kLayers) {
    LatencyRecorder rec;
    bool any_nonzero = false;
    for (const RequestSpan& s : spans) {
      Nanos r = (s.*layer.residency)();
      rec.Add(r);
      any_nonzero = any_nonzero || r > 0;
    }
    if (!any_nonzero) {
      continue;  // layer never touched (e.g. no journal in the workload)
    }
    std::string prefix = std::string("trace_") + layer.name;
    out.emplace_back(prefix + "_p50_ms", ToMillis(rec.Percentile(50)));
    out.emplace_back(prefix + "_p95_ms", ToMillis(rec.Percentile(95)));
    out.emplace_back(prefix + "_p99_ms", ToMillis(rec.Percentile(99)));
    out.emplace_back(prefix + "_p999_ms", ToMillis(rec.Percentile(99.9)));
  }

  // Per-cause block-layer latency: each cause pid sees the full latency of
  // every request it contributed to (a process blocked behind an entangled
  // journal commit experiences the whole commit, not a 1/n share).
  std::map<int32_t, LatencyRecorder> by_cause;
  for (const RequestSpan& s : spans) {
    for (int32_t pid : s.causes) {
      by_cause[pid].Add(s.total());
    }
  }
  out.emplace_back("trace_causes", static_cast<double>(by_cause.size()));
  // Cap the per-cause expansion: a 100-thread bench would otherwise emit
  // hundreds of metrics. Keep the most active pids (ties: lowest pid).
  std::vector<std::pair<int32_t, LatencyRecorder*>> ranked;
  ranked.reserve(by_cause.size());
  for (auto& [pid, rec] : by_cause) {
    ranked.emplace_back(pid, &rec);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.second->count() > b.second->count();
                   });
  constexpr size_t kMaxCauses = 64;
  if (ranked.size() > kMaxCauses) {
    ranked.resize(kMaxCauses);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [pid, rec] : ranked) {
    std::string prefix = "trace_cause" + std::to_string(pid) + "_total";
    out.emplace_back(prefix + "_p50_ms", ToMillis(rec->Percentile(50)));
    out.emplace_back(prefix + "_p95_ms", ToMillis(rec->Percentile(95)));
    out.emplace_back(prefix + "_p99_ms", ToMillis(rec->Percentile(99)));
    out.emplace_back(prefix + "_p999_ms", ToMillis(rec->Percentile(99.9)));
  }
  return out;
}

}  // namespace obs
}  // namespace splitio
