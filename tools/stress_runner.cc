// Randomized differential stress runner.
//
// Campaign mode (default): generate one scenario per seed (random workload
// program x random stack config), execute it under the cross-config oracles
// (completion, conservation, span accounting, crash consistency, mq(1,1) ==
// legacy, cross-scheduler content), minimize any failure (config axes +
// op-level ddmin), and write a self-contained repro JSON per failure.
//
//   stress_runner --seeds 200 --out-dir stress-out
//   stress_runner --seeds 100000 --budget 30 --out-dir stress-out
//   stress_runner --seeds 50 --control drop-completion   # oracle self-test
//
// Replay mode: re-execute a repro file and verify the recorded failure
// reproduces byte-for-byte. `--metrics PATH` additionally samples the
// telemetry gauges during the replay and writes the timeline JSONL
// (src/obs/metrics; readable by metrics_report) — queue depths and device
// occupancy around a failure are often the fastest way to see *why* a seed
// went wrong. Campaign mode ignores the flag (workers run on their own
// threads; the hub is per-thread).
//
//   stress_runner --replay stress-out/repro-seed42.json --metrics tl.jsonl
//
// Exit codes: 0 = clean campaign / failure reproduced; 1 = failures found /
// replay mismatch; 2 = usage or I/O error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "src/core/sched_factory.h"
#include "src/obs/metrics_global.h"
#include "src/stress/runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: stress_runner [--seeds N] [--seed-start N]\n"
               "                     [--budget SECONDS] [--out-dir DIR]\n"
               "                     [--jobs N] [--no-minimize]\n"
               "                     [--no-content-diff]\n"
               "                     [--control NAME] [--sched NAME]\n"
               "                     [--max-ops N] [--verbose]\n"
               "       stress_runner --replay FILE [--metrics TL.jsonl]\n"
               "controls: skip-preflush | misordered-elevator | "
               "drop-completion\n");
  return 2;
}

bool ParseLong(const char* s, long* out) {
  char* end = nullptr;
  long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using splitio::NegativeControl;
  using splitio::StressOptions;

  StressOptions options;
  std::string replay_path;
  std::string metrics_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    long v = 0;
    if (arg == "--seeds") {
      const char* val = next();
      if (val == nullptr || !ParseLong(val, &v) || v < 1) {
        return Usage();
      }
      options.num_seeds = static_cast<int>(v);
    } else if (arg == "--seed-start") {
      const char* val = next();
      if (val == nullptr || !ParseLong(val, &v) || v < 0) {
        return Usage();
      }
      options.seed_start = static_cast<uint64_t>(v);
    } else if (arg == "--budget") {
      const char* val = next();
      if (val == nullptr || !ParseLong(val, &v) || v < 1) {
        return Usage();
      }
      options.budget_seconds = static_cast<double>(v);
    } else if (arg == "--out-dir") {
      const char* val = next();
      if (val == nullptr) {
        return Usage();
      }
      options.out_dir = val;
    } else if (arg == "--jobs") {
      // 0 = one worker per hardware thread. Output stays in seed order
      // regardless of the worker count (see StressOptions::jobs).
      const char* val = next();
      if (val == nullptr || !ParseLong(val, &v) || v < 0) {
        return Usage();
      }
      options.jobs = static_cast<int>(v);
      if (options.jobs == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        options.jobs = hw > 0 ? static_cast<int>(hw) : 1;
      }
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg == "--no-content-diff") {
      options.oracle.run_content_differential = false;
    } else if (arg == "--control") {
      const char* val = next();
      if (val == nullptr ||
          !splitio::NegativeControlFromName(val, &options.force_control) ||
          options.force_control == NegativeControl::kNone) {
        return Usage();
      }
    } else if (arg == "--sched") {
      // Any registered scheduler: a canonical kind ("split-deadline") or a
      // hybrid spec ("deadline-token"); pins every generated scenario.
      const char* val = next();
      if (val == nullptr) {
        return Usage();
      }
      splitio::StressStackConfig check;
      if (!splitio::SetStackSched(val, &check)) {
        std::fprintf(stderr, "stress_runner: %s\n",
                     splitio::UnknownSchedMessage(val).c_str());
        return 2;
      }
      options.pin_sched = val;
    } else if (arg == "--max-ops") {
      const char* val = next();
      if (val == nullptr || !ParseLong(val, &v) || v < 1) {
        return Usage();
      }
      options.gen.max_ops = static_cast<int>(v);
      options.gen.min_ops = std::min(options.gen.min_ops, options.gen.max_ops);
    } else if (arg == "--verbose") {
      options.verbose = true;
    } else if (arg == "--replay") {
      const char* val = next();
      if (val == nullptr) {
        return Usage();
      }
      replay_path = val;
    } else if (arg == "--metrics") {
      const char* val = next();
      if (val == nullptr) {
        return Usage();
      }
      metrics_path = val;
    } else {
      return Usage();
    }
  }

  if (!replay_path.empty()) {
    if (!metrics_path.empty()) {
      splitio::obs::EnableGlobalMetrics(metrics_path, "", 0);
    }
    // Resolve before opening (and echo the result): repro paths used to be
    // CWD-relative only, so the same command line worked from the repo root
    // but not from build/ where the nightly workflow runs.
    std::string resolved =
        splitio::ResolveReproPath(replay_path, argv[0] ? argv[0] : "");
    std::cout << "replaying: " << resolved << "\n";
    std::string message;
    int rc = splitio::ReplayRepro(resolved, &message);
    std::cout << message << "\n";
    splitio::obs::FinalizeGlobalMetrics();
    return rc;
  }

  if (!metrics_path.empty()) {
    std::fprintf(stderr,
                 "stress_runner: --metrics only applies to --replay; "
                 "ignored\n");
  }
  splitio::StressReport report = splitio::RunStress(options, &std::cout);
  return report.ok() ? 0 : 1;
}
