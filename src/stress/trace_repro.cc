#include "src/stress/trace_repro.h"

#include <utility>

#include "src/stress/oracles.h"
#include "src/stress/shrink.h"

namespace splitio {

bool TraceToRepro(const ingest::ParsedTrace& trace,
                  const TraceReproOptions& options, StressFailure* out,
                  std::string* error) {
  *out = StressFailure();
  WorkloadProgram program;
  ingest::ReconstructStats stats;
  if (!ingest::Reconstruct(trace, options.reconstruct, &program, &stats,
                           error)) {
    return false;
  }

  Scenario scenario;
  scenario.seed = options.seed;
  scenario.stack = options.stack;
  scenario.program = std::move(program);

  StressFailure failure;
  failure.seed = options.seed;
  std::vector<OracleFailure> failures =
      EvaluateScenario(scenario, options.oracle);
  if (failures.empty()) {
    failure.oracle = "clean";
    failure.detail = "";
    failure.scenario = std::move(scenario);
    *out = std::move(failure);
    return true;
  }

  failure.oracle = failures.front().oracle;
  failure.detail = failures.front().detail;
  failure.scenario = scenario;
  if (options.minimize) {
    ShrinkOptions shrink;
    shrink.max_evals = options.max_shrink_evals;
    shrink.oracle = options.oracle;
    ShrinkResult shrunk = Minimize(scenario, failure.oracle, shrink);
    if (shrunk.reproduced && !shrunk.failures.empty()) {
      failure.scenario = std::move(shrunk.scenario);
      failure.minimized = true;
      failure.shrink_evals = shrunk.evals;
    }
  }
  // Replay compares detail byte-for-byte against a re-evaluation under
  // reduced options (only the recorded oracle's differential enabled, like
  // ReplayRepro does) — record the detail from that same evaluation.
  OracleOptions reduced;
  reduced.run_content_differential = failure.oracle == "content";
  for (const OracleFailure& rf : EvaluateScenario(failure.scenario, reduced)) {
    if (rf.oracle == failure.oracle) {
      failure.detail = rf.detail;
      break;
    }
  }
  *out = std::move(failure);
  return true;
}

}  // namespace splitio
