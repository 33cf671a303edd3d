// Stress scenarios: a random workload program crossed with a random stack
// configuration, generated deterministically from one seed.
//
// A scenario is the unit the runner executes, the shrinker minimizes, and a
// repro file replays. Everything random about it is decided here, up front,
// from the seed — execution (src/stress/executor.h) draws no random numbers
// of its own, so a scenario runs bit-for-bit identically every time.
#ifndef SRC_STRESS_SCENARIO_H_
#define SRC_STRESS_SCENARIO_H_

#include <cstdint>
#include <string>

#include "src/core/sched_factory.h"
#include "src/core/storage_stack.h"
#include "src/workload/program.h"

namespace splitio {

// Deliberately-injected bugs, for proving the oracles fire (mutation-style
// negative controls). kNone in all real stress runs; the control is part of
// the scenario so a repro file replays it faithfully.
enum class NegativeControl : uint8_t {
  kNone,
  // Jbd2Journal::Config::buggy_skip_preflush: the journal omits the
  // pre-commit-record flush, so a commit record can be durable before the
  // data it covers — caught by the crash-consistency oracle.
  kSkipPreflush,
  // Replaces the elevator with one that dispatches LIFO and permanently
  // pockets every kth request — caught by the completion / conservation
  // oracles.
  kMisorderedElevator,
  // BlockLayer drops every kth completion (lost interrupt) — caught by the
  // completion / conservation / span oracles.
  kDropCompletion,
};

const char* NegativeControlName(NegativeControl control);
bool NegativeControlFromName(const char* name, NegativeControl* out);

struct StressStackConfig {
  SchedKind sched = SchedKind::kNoop;
  StackConfig::FsKind fs = StackConfig::FsKind::kExt4;
  StackConfig::DeviceKind device = StackConfig::DeviceKind::kHdd;
  // Block-layer topology: legacy single queue when mq is false.
  bool mq = false;
  int hw_queues = 1;
  int queue_depth = 1;
  // Transient fault injection (EIO + latency spikes), seeded from the
  // scenario seed. Disables the cross-scheduler content oracle (op results
  // become legitimately schedule-dependent).
  bool transient_faults = false;
  // Crash-consistency mode: volatile device write cache + durability
  // barriers + crash-point sampling and recovery checking. Journaling file
  // systems only (ext4 / xfs).
  bool crash = false;
  NegativeControl control = NegativeControl::kNone;
  // Composed-scheduler differential axis: when set, the stack runs
  // MakeSched(spec) instead of MakeSched(sched) (the `sched` kind is still
  // generated and serialized so variant/differential machinery keeps a
  // canonical reference point).
  bool use_spec = false;
  PolicySpec spec;

  bool operator==(const StressStackConfig&) const = default;
};

struct Scenario {
  uint64_t seed = 0;
  StressStackConfig stack;
  WorkloadProgram program;

  bool operator==(const Scenario&) const = default;
};

struct GenOptions {
  int max_procs = 4;
  int max_files = 4;
  int min_ops = 8;
  int max_ops = 40;
  uint64_t max_io_bytes = 128 * 1024;  // per write/read op
  uint64_t file_region_bytes = 4ULL << 20;  // offsets drawn below this
  Nanos max_delay = Msec(20);
  bool allow_cow = true;
  bool allow_faults = true;
  bool allow_crash = true;
  bool allow_mq = true;
  // Sometimes replace the drawn SchedKind with a random PolicySpec
  // (RandomPolicySpec), exercising ComposedScheduler compositions no
  // hand-written class covers.
  bool allow_random_spec = true;
};

// Deterministic: the same (seed, options) always yields the same scenario.
Scenario GenerateScenario(uint64_t seed, const GenOptions& options = {});

// Points `stack` at the registered scheduler `name` (RegisteredSpecs): a
// canonical kind becomes `sched` and drops any spec; a hybrid becomes the
// spec (`sched` is kept as the reference kind). Returns false for an
// unknown name. `stress_runner --sched` and `trace2repro --sched` both
// resolve their argument here.
bool SetStackSched(const std::string& name, StressStackConfig* stack);

const char* FsKindName(StackConfig::FsKind fs);
const char* DeviceKindName(StackConfig::DeviceKind device);

// Single-line JSON, embedding the program via ProgramToJson.
std::string ScenarioToJson(const Scenario& scenario);
// `err`, when non-null, receives the byte offset and reason of a failure.
bool ScenarioFromJson(const std::string& json, Scenario* out,
                      jsonmini::ParseError* err = nullptr);

}  // namespace splitio

#endif  // SRC_STRESS_SCENARIO_H_
