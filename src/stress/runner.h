// Stress campaign driver: generate scenario per seed -> evaluate oracles ->
// on failure, minimize and emit a self-contained repro file that
// ReplayRepro (and `stress_runner --replay`) can re-execute byte-for-byte.
#ifndef SRC_STRESS_RUNNER_H_
#define SRC_STRESS_RUNNER_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "src/stress/scenario.h"
#include "src/stress/shrink.h"

namespace splitio {

struct StressOptions {
  uint64_t seed_start = 1;
  int num_seeds = 20;
  // Wall-clock budget in seconds; 0 = unbounded. The seed loop stops
  // starting new seeds once the budget is spent (results stay per-seed
  // deterministic — the budget only truncates the range).
  double budget_seconds = 0;
  // Directory for repro files ("" = don't write files).
  std::string out_dir;
  bool minimize = true;
  int max_shrink_evals = 200;
  // Force a negative control onto every generated scenario (mutation
  // testing of the oracles themselves). kSkipPreflush implies crash mode on
  // an ext4 stack — the runner adjusts the scenario accordingly.
  NegativeControl force_control = NegativeControl::kNone;
  // Pin every scenario to one registered scheduler (axis-focused
  // campaigns), applied with SetStackSched; "" keeps the generated one.
  std::string pin_sched;
  bool verbose = false;  // per-seed progress lines on the log stream
  // Worker threads for the seed loop. 1 = the classic sequential path.
  // With jobs > 1, seeds are evaluated concurrently (each simulation is
  // self-contained: simulator, counters, and trace state are thread_local)
  // but the log lines, repro files, and failure list are still emitted in
  // seed order, each as soon as every earlier seed is done, so the output
  // over a given seed range is byte-identical to a sequential run. Workers
  // stay within a fixed window of seeds ahead of the next one to emit, so
  // memory does not grow with the range. Only the wall-clock budget
  // interacts with parallelism: it truncates the range at claim time, so a
  // budgeted parallel campaign may cover more seeds than a sequential one.
  int jobs = 1;
  GenOptions gen;
  OracleOptions oracle;
};

struct StressFailure {
  uint64_t seed = 0;
  std::string oracle;
  std::string detail;       // canonical detail of the (minimized) repro
  Scenario scenario;        // minimized when minimization succeeded
  bool minimized = false;
  int shrink_evals = 0;
  std::string repro_path;   // "" when out_dir was empty or writing failed
};

struct StressReport {
  int seeds_run = 0;
  bool budget_exhausted = false;
  std::vector<StressFailure> failures;
  bool ok() const { return failures.empty(); }
};

// `log` may be null (silent). Failure and summary lines always go to the
// log when present; per-seed lines only with options.verbose.
StressReport RunStress(const StressOptions& options, std::ostream* log);

// Repro file: {"seed":..,"oracle":"..","detail":"..","scenario":{..}}.
// The reserved oracle name "clean" records a scenario expected to pass
// every invariant oracle (trace2repro emits it for healthy trace slices);
// replay then asserts the absence of failures instead of one's presence.
std::string ReproToJson(const StressFailure& failure);
// `err`, when non-null, receives the byte offset and reason of a failure.
bool ReproFromJson(const std::string& json, StressFailure* out,
                   jsonmini::ParseError* err = nullptr);

// Re-executes a repro file's scenario and compares the failure against the
// recorded oracle + detail. Returns 0 when the failure reproduces
// byte-identically, 1 when it does not (message explains), 2 on file/parse
// errors (including *where* the parse broke). `message` always receives a
// human-readable outcome.
int ReplayRepro(const std::string& path, std::string* message);

// Resolves the --replay argument to an absolute path. An existing path is
// canonicalized against the CWD; a relative path that does not exist there
// is probed against the directory containing `exe_hint` (the runner
// binary) and that directory's parent — the nightly workflow invokes the
// runner from build/ while artifact-downloaded repros sit next to the
// binary, so CWD-relative resolution alone made the same command line work
// in one checkout and fail in another. Returns `given` unchanged when no
// candidate exists (the open error then names the original argument).
std::string ResolveReproPath(const std::string& given,
                             const std::string& exe_hint);

}  // namespace splitio

#endif  // SRC_STRESS_RUNNER_H_
