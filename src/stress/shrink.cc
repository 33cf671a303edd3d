#include "src/stress/shrink.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace splitio {

namespace {

class Shrinker {
 public:
  Shrinker(std::string oracle, const ShrinkOptions& options)
      : oracle_(std::move(oracle)), options_(options) {
    // Differential oracles cost extra runs per evaluation; during shrinking
    // only the oracle under minimization needs to stay live.
    oracle_opts_ = options.oracle;
    oracle_opts_.run_content_differential = oracle_ == "content";
  }

  // True iff `candidate` still fails the target oracle. Callers adopt the
  // candidate exactly when this returns true, so the matching failure list
  // is captured here.
  bool StillFails(const Scenario& candidate) {
    if (evals_ >= options_.max_evals) {
      return false;  // budget exhausted: freeze the current best
    }
    ++evals_;
    std::vector<OracleFailure> failures =
        EvaluateScenario(candidate, oracle_opts_);
    for (const OracleFailure& failure : failures) {
      if (failure.oracle == oracle_) {
        last_failures_ = std::move(failures);
        return true;
      }
    }
    return false;
  }

  int evals() const { return evals_; }
  std::vector<OracleFailure> TakeFailures() { return std::move(last_failures_); }

 private:
  std::string oracle_;
  ShrinkOptions options_;
  OracleOptions oracle_opts_;
  int evals_ = 0;
  std::vector<OracleFailure> last_failures_;
};

// Tries one config-axis simplification: `mutate` edits a copy of `current`;
// the edit sticks only if the oracle still fails.
template <typename Fn>
void TryAxis(Shrinker& shrinker, Scenario* current, Fn mutate) {
  Scenario candidate = *current;
  mutate(&candidate);
  if (candidate == *current) {
    return;  // axis already at its simplest
  }
  if (shrinker.StillFails(candidate)) {
    *current = std::move(candidate);
  }
}

void ShrinkConfigAxes(Shrinker& shrinker, Scenario* current) {
  TryAxis(shrinker, current, [](Scenario* s) {
    s->stack.mq = false;
    s->stack.hw_queues = 1;
    s->stack.queue_depth = 1;
  });
  TryAxis(shrinker, current, [](Scenario* s) {
    s->stack.hw_queues = 1;
    s->stack.queue_depth = 1;
  });
  TryAxis(shrinker, current,
          [](Scenario* s) { s->stack.transient_faults = false; });
  TryAxis(shrinker, current, [](Scenario* s) { s->stack.crash = false; });
  TryAxis(shrinker, current,
          [](Scenario* s) { s->stack.fs = StackConfig::FsKind::kExt4; });
  TryAxis(shrinker, current,
          [](Scenario* s) { s->stack.device = StackConfig::DeviceKind::kHdd; });
  // Composed-spec axis first (fall back to the canonical kind), then the
  // kind itself.
  TryAxis(shrinker, current, [](Scenario* s) {
    s->stack.use_spec = false;
    s->stack.spec = PolicySpec();
  });
  TryAxis(shrinker, current, [](Scenario* s) { s->stack.sched = SchedKind::kNoop; });
  TryAxis(shrinker, current, [](Scenario* s) {
    std::fill(s->program.priorities.begin(), s->program.priorities.end(), 0);
  });
  TryAxis(shrinker, current, [](Scenario* s) {
    for (StressOp& op : s->program.ops) {
      op.delay = 0;
    }
  });
}

// Classic ddmin over the op list: remove chunks at increasing granularity,
// keeping any removal after which the oracle still fails.
void ShrinkOps(Shrinker& shrinker, Scenario* current) {
  // Cheap best case first: many stack-level bugs (lost completion, pocketed
  // request) trip on the setup/reaper traffic alone.
  {
    Scenario candidate = *current;
    candidate.program.ops.clear();
    if (!current->program.ops.empty() && shrinker.StillFails(candidate)) {
      *current = std::move(candidate);
    }
  }

  size_t granularity = 2;
  while (current->program.ops.size() >= 2) {
    size_t n = current->program.ops.size();
    granularity = std::min(granularity, n);
    size_t chunk = (n + granularity - 1) / granularity;
    bool reduced = false;
    for (size_t start = 0; start < n; start += chunk) {
      std::vector<size_t> complement;
      complement.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (i < start || i >= start + chunk) {
          complement.push_back(i);
        }
      }
      if (complement.empty()) {
        continue;
      }
      Scenario candidate = *current;
      candidate.program = current->program.WithOps(complement);
      if (shrinker.StillFails(candidate)) {
        *current = std::move(candidate);
        granularity = std::max<size_t>(granularity - 1, 2);
        reduced = true;
        break;
      }
    }
    if (!reduced) {
      if (granularity >= n) {
        break;
      }
      granularity = std::min(granularity * 2, n);
    }
  }
}

// Drops processes/files no surviving op references (the generator sizes the
// universe before ops are drawn, so after ddmin most of it is unused).
// Renumbering changes rename ownership (file % num_procs) — harmless,
// because the result is adopted only if the oracle still fails.
void TrimUniverse(Shrinker& shrinker, Scenario* current) {
  int max_proc = -1;
  int max_file = -1;
  for (const StressOp& op : current->program.ops) {
    max_proc = std::max(max_proc, op.proc);
    max_file = std::max(max_file, op.file);
  }
  Scenario candidate = *current;
  candidate.program.num_procs = max_proc + 1 > 0 ? max_proc + 1 : 1;
  candidate.program.num_files = max_file + 1 > 0 ? max_file + 1 : 1;
  candidate.program.priorities.resize(
      static_cast<size_t>(candidate.program.num_procs), 0);
  if (candidate != *current && shrinker.StillFails(candidate)) {
    *current = std::move(candidate);
  }
}

}  // namespace

ShrinkResult Minimize(const Scenario& scenario, const std::string& oracle,
                      const ShrinkOptions& options) {
  Shrinker shrinker(oracle, options);
  ShrinkResult result;
  result.scenario = scenario;

  if (!shrinker.StillFails(scenario)) {
    // Not reproducible under the reduced oracle options (or eval budget 0):
    // hand back the original untouched.
    result.evals = shrinker.evals();
    return result;
  }
  result.reproduced = true;
  result.failures = shrinker.TakeFailures();

  Scenario current = scenario;
  ShrinkConfigAxes(shrinker, &current);
  ShrinkOps(shrinker, &current);
  TrimUniverse(shrinker, &current);
  // Ops gone (or reordered out): one more axis pass often simplifies the
  // stack further now that the program is tiny.
  ShrinkConfigAxes(shrinker, &current);

  result.scenario = std::move(current);
  std::vector<OracleFailure> last = shrinker.TakeFailures();
  if (!last.empty()) {
    result.failures = std::move(last);
  }
  result.evals = shrinker.evals();
  return result;
}

}  // namespace splitio
