// Differential and invariant oracles over scenario executions.
//
// EvaluateScenario runs the scenario (plus derived variants for the
// differential oracles) and returns every oracle violation found. An empty
// result means the scenario passed. Failure details are built exclusively
// from simulated values, so the same scenario always produces the same
// failure strings — the replay machinery compares them byte-for-byte.
//
// Oracles, in evaluation order:
//   completion    — every program op ran to completion and the final fsync
//                   pass finished before the horizon.
//   conservation  — submitted == completed + merged, nothing in flight, the
//                   elevator drained, and wb_pages_flushed <= pages_dirtied.
//   spans         — trace-span accounting: one span per completed/merged
//                   request, and per-span layer residencies fit inside the
//                   span's total block-layer latency.
//   crash         — every sampled crash image passes journal replay and the
//                   ordered-mode durability invariants (crash mode only).
//   content       — final file sizes and per-op results agree across all
//                   eight schedulers (fault-free scenarios only: transient
//                   faults make op results legitimately schedule-dependent).
#ifndef SRC_STRESS_ORACLES_H_
#define SRC_STRESS_ORACLES_H_

#include <string>
#include <vector>

#include "src/stress/executor.h"
#include "src/stress/scenario.h"

namespace splitio {

struct OracleFailure {
  std::string oracle;  // "completion", "conservation", "spans", ...
  std::string detail;  // deterministic one-line description
};

struct OracleOptions {
  Nanos horizon = Msec(27300);
  int crash_points = 8;
  // The cross-scheduler content differential costs 7 extra runs; the
  // runner's smoke tier can turn it off.
  bool run_content_differential = true;
};

// Runs the scenario under every applicable oracle. Deterministic: same
// scenario + options => same failures (order included).
std::vector<OracleFailure> EvaluateScenario(const Scenario& scenario,
                                            const OracleOptions& options = {});

// Convenience: "oracle: detail; oracle: detail" (empty string if clean).
std::string DescribeFailures(const std::vector<OracleFailure>& failures);

}  // namespace splitio

#endif  // SRC_STRESS_ORACLES_H_
