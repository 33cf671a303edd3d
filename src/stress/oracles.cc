#include "src/stress/oracles.h"

#include <string>
#include <vector>

#include "src/fault/crash_checker.h"
#include "src/obs/trace_event.h"

namespace splitio {

namespace {

// Bound per-oracle failure lists so a badly broken run yields a readable
// (and deterministically truncated) report instead of thousands of lines.
constexpr size_t kMaxFailuresPerOracle = 4;

void Add(std::vector<OracleFailure>* out, size_t base, const char* oracle,
         std::string detail) {
  if (out->size() - base < kMaxFailuresPerOracle) {
    out->push_back({oracle, std::move(detail)});
  }
}

void CheckCompletion(const Scenario& scenario, const ExecResult& result,
                     std::vector<OracleFailure>* out) {
  size_t base = out->size();
  if (!result.all_ops_completed) {
    Add(out, base, "completion",
        "program did not reach the final-fsync barrier by the horizon");
  }
  for (size_t i = 0; i < result.op_results.size(); ++i) {
    if (result.op_results[i] == kOpNotRun) {
      const StressOp& op = scenario.program.ops[i];
      Add(out, base, "completion",
          "op " + std::to_string(i) + " (" + StressOpKindName(op.kind) +
              " p" + std::to_string(op.proc) + " f" + std::to_string(op.file) +
              ") never completed");
    }
  }
}

void CheckConservation(const ExecResult& result,
                       std::vector<OracleFailure>* out) {
  size_t base = out->size();
  if (result.submitted != result.completed + result.merged) {
    Add(out, base, "conservation",
        "submitted=" + std::to_string(result.submitted) +
            " != completed=" + std::to_string(result.completed) +
            " + merged=" + std::to_string(result.merged));
  }
  if (result.inflight_at_end != 0) {
    Add(out, base, "conservation",
        "inflight_at_end=" + std::to_string(result.inflight_at_end));
  }
  if (!result.elevator_empty) {
    Add(out, base, "conservation", "elevator not empty at horizon");
  }
  if (result.wb_pages_flushed > result.pages_dirtied) {
    Add(out, base, "conservation",
        "wb_pages_flushed=" + std::to_string(result.wb_pages_flushed) +
            " > pages_dirtied=" + std::to_string(result.pages_dirtied));
  }
}

void CheckSpans(const ExecResult& result, std::vector<OracleFailure>* out) {
  if (!result.traced) {
    return;
  }
  size_t base = out->size();
  // One span per completed request plus one per merged child (merged
  // children complete with their container, so both views must agree).
  uint64_t expected = result.completed + result.merged;
  if (result.spans.size() != expected) {
    Add(out, base, "spans",
        "span count " + std::to_string(result.spans.size()) +
            " != completed+merged " + std::to_string(expected));
  }
  for (const obs::RequestSpan& span : result.spans) {
    Nanos residency = span.in_elevator() + span.on_device();
    if (residency > span.total()) {
      Add(out, base, "spans",
          "span id=" + std::to_string(span.id) + ": elevator+device residency " +
              std::to_string(residency) + "ns exceeds total " +
              std::to_string(span.total()) + "ns");
    }
    if (span.result == 0 && !span.merged &&
        (span.flags & obs::kFlagFlush) == 0 &&
        span.service <= 0) {
      Add(out, base, "spans",
          "span id=" + std::to_string(span.id) +
              ": successful non-merged request with no device service");
    }
  }
}

void CheckCrash(const ExecResult& result, std::vector<OracleFailure>* out) {
  size_t base = out->size();
  for (size_t i = 0; i < result.crash_reports.size(); ++i) {
    const CrashReport& report = result.crash_reports[i];
    if (!report.ok()) {
      Add(out, base, "crash",
          "image " + std::to_string(i) + ": " + DescribeViolations(report));
    }
  }
}

// Content-only comparison: what the program observed and what ended up in
// the files. Valid across schedulers, which legitimately merge and order
// requests differently.
void CompareContent(const std::string& label_a, const ExecResult& a,
                    const std::string& label_b, const ExecResult& b,
                    std::vector<OracleFailure>* out) {
  size_t base = out->size();
  if (a.all_ops_completed != b.all_ops_completed) {
    Add(out, base, "content",
        label_a + " vs " + label_b + ": completion disagreement");
  }
  for (size_t i = 0; i < a.op_results.size() && i < b.op_results.size(); ++i) {
    if (a.op_results[i] != b.op_results[i]) {
      Add(out, base, "content",
          label_a + " vs " + label_b + ": op " + std::to_string(i) +
              " result " + std::to_string(a.op_results[i]) + " != " +
              std::to_string(b.op_results[i]));
    }
  }
  for (size_t f = 0; f < a.file_sizes.size() && f < b.file_sizes.size(); ++f) {
    if (a.file_sizes[f] != b.file_sizes[f]) {
      Add(out, base, "content",
          label_a + " vs " + label_b + ": file " + std::to_string(f) +
              " size " + std::to_string(a.file_sizes[f]) + " != " +
              std::to_string(b.file_sizes[f]));
    }
  }
}

}  // namespace

std::vector<OracleFailure> EvaluateScenario(const Scenario& scenario,
                                            const OracleOptions& options) {
  std::vector<OracleFailure> failures;

  ExecOptions base_opts;
  base_opts.horizon = options.horizon;
  base_opts.trace = true;
  base_opts.crash_points = options.crash_points;
  ExecResult base = ExecuteScenario(scenario, base_opts);

  CheckCompletion(scenario, base, &failures);
  CheckConservation(base, &failures);
  CheckSpans(base, &failures);
  CheckCrash(base, &failures);

  // Variant runs skip tracing and crash sampling: only the fingerprint /
  // content fields are compared, and sampling is passive anyway.
  ExecOptions variant_opts;
  variant_opts.horizon = options.horizon;
  variant_opts.trace = false;
  variant_opts.crash_points = 0;

  // Cross-scheduler content differential: fault-free, un-mutated scenarios
  // only. Transient faults hit different requests under different dispatch
  // orders, and a negative control either bypasses the scheduler choice
  // entirely (misordered elevator) or is caught by the oracles above.
  if (options.run_content_differential &&
      !scenario.stack.transient_faults &&
      scenario.stack.control == NegativeControl::kNone) {
    const char* base_name = scenario.stack.use_spec
                                ? scenario.stack.spec.name.c_str()
                                : SchedName(scenario.stack.sched);
    for (SchedKind kind : kAllSchedKinds) {
      if (!scenario.stack.use_spec && kind == scenario.stack.sched) {
        continue;  // the base run already covers it
      }
      Scenario variant = scenario;
      // Variants always run the canonical kinds: a spec-based base run is
      // differentially checked against all eight of them.
      variant.stack.use_spec = false;
      variant.stack.sched = kind;
      ExecResult other = ExecuteScenario(variant, variant_opts);
      CompareContent(base_name, base, SchedName(kind), other, &failures);
    }
  }
  return failures;
}

std::string DescribeFailures(const std::vector<OracleFailure>& failures) {
  std::string out;
  for (const OracleFailure& failure : failures) {
    if (!out.empty()) {
      out += "; ";
    }
    out += failure.oracle;
    out += ": ";
    out += failure.detail;
  }
  return out;
}

}  // namespace splitio
