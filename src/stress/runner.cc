#include "src/stress/runner.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "src/stress/oracles.h"
#include "src/workload/json_mini.h"

namespace splitio {

namespace {

// The canonical options a repro is recorded and replayed under: the cheap
// invariant oracles always on, the expensive differential ones only when
// they are the oracle under test. This keeps replay fast and — more
// importantly — byte-identical to what the shrinker saw.
OracleOptions ReducedOptions(const std::string& oracle,
                             const OracleOptions& base) {
  OracleOptions out = base;
  out.run_content_differential = oracle == "content";
  return out;
}

// Applies runner-level overrides to a generated scenario.
void ApplyOverrides(const StressOptions& options, Scenario* scenario) {
  if (!options.pin_sched.empty()) {
    // A kind pin also drops a generated random spec, not just the kind the
    // spec would otherwise shadow.
    SetStackSched(options.pin_sched, &scenario->stack);
  }
  if (options.force_control != NegativeControl::kNone) {
    scenario->stack.control = options.force_control;
    if (options.force_control == NegativeControl::kSkipPreflush) {
      // The skipped preflush is only observable through journal replay
      // against a volatile cache: force a crash-mode ext4 stack.
      scenario->stack.fs = StackConfig::FsKind::kExt4;
      scenario->stack.crash = true;
    }
  }
}

std::string DescribeStack(const StressStackConfig& st) {
  std::string out = st.use_spec ? st.spec.name : std::string(SchedName(st.sched));
  out += "/";
  out += FsKindName(st.fs);
  out += "/";
  out += DeviceKindName(st.device);
  out += st.mq ? "/mq(" + std::to_string(st.hw_queues) + "," +
                     std::to_string(st.queue_depth) + ")"
               : "/legacy";
  if (st.transient_faults) {
    out += "+faults";
  }
  if (st.crash) {
    out += "+crash";
  }
  if (st.control != NegativeControl::kNone) {
    out += std::string("+control:") + NegativeControlName(st.control);
  }
  return out;
}

bool WriteReproFile(const StressFailure& failure, const std::string& out_dir,
                    std::string* path_out) {
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return false;
  }
  std::string path =
      out_dir + "/repro-seed" + std::to_string(failure.seed) + ".json";
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << ReproToJson(failure) << "\n";
  out.close();
  if (!out) {
    return false;
  }
  *path_out = path;
  return true;
}

// Everything one seed produces, computed without touching shared state so
// worker threads can evaluate seeds concurrently. The repro file write and
// all logging stay out of here — they happen on the coordinating thread, in
// seed order, so a parallel campaign emits byte-identical output to a
// sequential one over the same seed range.
struct SeedOutcome {
  bool ran = false;
  bool failed = false;
  std::string verbose_line;  // "" unless options.verbose
  StressFailure failure;     // valid only when failed
};

SeedOutcome RunSeed(const StressOptions& options, uint64_t seed) {
  SeedOutcome out;
  out.ran = true;
  Scenario scenario = GenerateScenario(seed, options.gen);
  ApplyOverrides(options, &scenario);

  std::vector<OracleFailure> failures =
      EvaluateScenario(scenario, options.oracle);
  if (options.verbose) {
    std::ostringstream line;
    line << "seed " << seed << " " << DescribeStack(scenario.stack) << " ops="
         << scenario.program.ops.size() << " -> "
         << (failures.empty() ? "ok" : DescribeFailures(failures)) << "\n";
    out.verbose_line = line.str();
  }
  if (failures.empty()) {
    return out;
  }

  out.failed = true;
  StressFailure& f = out.failure;
  f.seed = seed;
  f.oracle = failures.front().oracle;
  if (options.minimize) {
    ShrinkOptions shrink_opts;
    shrink_opts.max_evals = options.max_shrink_evals;
    shrink_opts.oracle = options.oracle;
    ShrinkResult shrunk = Minimize(scenario, f.oracle, shrink_opts);
    f.shrink_evals = shrunk.evals;
    if (shrunk.reproduced) {
      f.minimized = true;
      f.scenario = shrunk.scenario;
      for (const OracleFailure& sf : shrunk.failures) {
        if (sf.oracle == f.oracle) {
          f.detail = sf.detail;
          break;
        }
      }
    }
  }
  if (!f.minimized) {
    // Unminimized repro: recompute the detail under the reduced options
    // the replayer will use, so replay still compares byte-for-byte.
    f.scenario = scenario;
    std::vector<OracleFailure> reduced =
        EvaluateScenario(scenario, ReducedOptions(f.oracle, options.oracle));
    for (const OracleFailure& rf : reduced) {
      if (rf.oracle == f.oracle) {
        f.detail = rf.detail;
        break;
      }
    }
    if (f.detail.empty()) {
      f.detail = failures.front().detail;  // last resort; should not happen
    }
  }
  return out;
}

// Outcomes a parallel campaign holds at most: a worker does not start a
// seed this far ahead of the next one to emit.
constexpr int kReorderWindow = 1024;

// Folds one completed seed into the report: repro file, log lines, failure
// list. Only ever called from the coordinating thread, in seed order.
void EmitOutcome(const StressOptions& options, SeedOutcome&& outcome,
                 StressReport* report, std::ostream* log) {
  ++report->seeds_run;
  if (options.verbose && log) {
    *log << outcome.verbose_line;
  }
  if (!outcome.failed) {
    return;
  }
  StressFailure f = std::move(outcome.failure);
  if (!options.out_dir.empty()) {
    WriteReproFile(f, options.out_dir, &f.repro_path);
  }
  if (log) {
    *log << "FAIL seed " << f.seed << " oracle=" << f.oracle << " ["
         << DescribeStack(f.scenario.stack) << " ops="
         << f.scenario.program.ops.size()
         << (f.minimized ? ", minimized" : ", unminimized") << "] "
         << f.detail;
    if (!f.repro_path.empty()) {
      *log << " repro=" << f.repro_path;
    }
    *log << "\n";
  }
  report->failures.push_back(std::move(f));
}

}  // namespace

StressReport RunStress(const StressOptions& options, std::ostream* log) {
  StressReport report;
  auto t0 = std::chrono::steady_clock::now();
  auto budget_spent = [&]() {
    if (options.budget_seconds <= 0) {
      return false;
    }
    std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    return elapsed.count() >= options.budget_seconds;
  };

  int jobs = std::max(1, options.jobs);
  jobs = std::min(jobs, options.num_seeds);
  if (jobs <= 1) {
    for (int i = 0; i < options.num_seeds; ++i) {
      if (budget_spent()) {
        report.budget_exhausted = true;
        break;
      }
      uint64_t seed = options.seed_start + static_cast<uint64_t>(i);
      EmitOutcome(options, RunSeed(options, seed), &report, log);
    }
  } else {
    // Workers claim seed indices in order, so the claimed indices are
    // always a contiguous prefix of the range, and every claimed seed runs
    // to completion. Each simulation is self-contained (the simulator,
    // counters, and trace registries are thread_local), so seeds evaluate
    // independently. A worker claims a seed only while it lies less than
    // kReorderWindow seeds ahead of the next one to emit, and parks its
    // outcome in that seed's window slot. This thread emits the outcomes
    // strictly in seed order as the finished prefix grows, so the log and
    // repro files do not depend on thread interleaving, and memory stays
    // bounded whatever the requested range. The wall-clock budget is
    // checked at claim time, matching the sequential loop's "stop starting
    // new seeds" semantics.
    std::vector<SeedOutcome> window(kReorderWindow);
    std::mutex mu;
    std::condition_variable claimable;  // the window moved
    std::condition_variable finished;   // a seed finished or a worker left
    int next_claim = 0;
    int next_emit = 0;
    int running = jobs;
    bool exhausted = false;
    auto worker = [&]() {
      std::unique_lock lock(mu);
      for (;;) {
        claimable.wait(lock, [&] {
          return next_claim >= options.num_seeds ||
                 next_claim - next_emit < kReorderWindow;
        });
        if (next_claim >= options.num_seeds) {
          break;
        }
        if (budget_spent()) {
          exhausted = true;
          break;
        }
        int i = next_claim++;
        lock.unlock();
        uint64_t seed = options.seed_start + static_cast<uint64_t>(i);
        SeedOutcome outcome = RunSeed(options, seed);
        lock.lock();
        window[static_cast<size_t>(i % kReorderWindow)] = std::move(outcome);
        finished.notify_one();
      }
      --running;
      finished.notify_one();
    };
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(jobs));
    for (int t = 0; t < jobs; ++t) {
      threads.emplace_back(worker);
    }
    std::unique_lock lock(mu);
    for (;;) {
      SeedOutcome& slot =
          window[static_cast<size_t>(next_emit % kReorderWindow)];
      finished.wait(lock, [&] { return slot.ran || running == 0; });
      if (!slot.ran) {
        break;  // every worker left and every claimed seed was emitted
      }
      SeedOutcome outcome = std::exchange(slot, SeedOutcome());
      ++next_emit;
      claimable.notify_all();
      lock.unlock();
      EmitOutcome(options, std::move(outcome), &report, log);
      lock.lock();
    }
    lock.unlock();
    for (std::thread& t : threads) {
      t.join();
    }
    report.budget_exhausted = exhausted;
  }

  if (log) {
    *log << "stress: " << report.seeds_run << " seed(s), "
         << report.failures.size() << " failure(s)"
         << (report.budget_exhausted ? " (budget exhausted)" : "") << "\n";
  }
  return report;
}

std::string ReproToJson(const StressFailure& failure) {
  std::string out = "{\"seed\":" + std::to_string(failure.seed);
  out += ",\"oracle\":\"" + jsonmini::Escape(failure.oracle) + "\"";
  out += ",\"detail\":\"" + jsonmini::Escape(failure.detail) + "\"";
  out += ",\"scenario\":" + ScenarioToJson(failure.scenario);
  out += "}";
  return out;
}

bool ReproFromJson(const std::string& json, StressFailure* out,
                   jsonmini::ParseError* err) {
  using jsonmini::Consume;
  using jsonmini::Cursor;
  using jsonmini::ParseString;
  using jsonmini::ParseUint;
  using jsonmini::SkipValue;

  *out = StressFailure();
  Cursor c(json);
  auto fail = [&]() {
    c.ReportError(err, "malformed repro JSON");
    return false;
  };
  if (!Consume(c, '{')) {
    return fail();
  }
  if (Consume(c, '}')) {
    return true;
  }
  for (;;) {
    std::string key;
    if (!ParseString(c, &key) || !Consume(c, ':')) {
      return fail();
    }
    bool ok = true;
    if (key == "seed") {
      ok = ParseUint(c, &out->seed);
    } else if (key == "oracle") {
      ok = ParseString(c, &out->oracle);
    } else if (key == "detail") {
      ok = ParseString(c, &out->detail);
    } else if (key == "scenario") {
      jsonmini::SkipWs(c);
      const char* start = c.p;
      if (!SkipValue(c)) {
        return fail();
      }
      jsonmini::ParseError serr;
      // On failure, keep the sub-parser's reason and re-anchor its offset
      // onto the enclosing document.
      ok = ScenarioFromJson(std::string(start, c.p), &out->scenario, &serr) ||
           c.FailAt(static_cast<size_t>(start - c.begin) + serr.offset,
                    serr.message);
    } else {
      ok = SkipValue(c);
    }
    if (!ok) {
      return fail();
    }
    if (Consume(c, '}')) {
      return true;
    }
    if (!Consume(c, ',')) {
      return fail();
    }
  }
}

int ReplayRepro(const std::string& path, std::string* message) {
  std::ifstream in(path);
  if (!in) {
    *message = "cannot open repro file: " + path;
    return 2;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  StressFailure repro;
  jsonmini::ParseError err;
  if (!ReproFromJson(buffer.str(), &repro, &err)) {
    *message =
        "cannot parse repro file: " + path + ": " + err.Describe();
    return 2;
  }
  if (repro.oracle.empty()) {
    *message = "cannot parse repro file: " + path + ": no oracle recorded";
    return 2;
  }

  std::vector<OracleFailure> failures =
      EvaluateScenario(repro.scenario, ReducedOptions(repro.oracle, {}));
  if (repro.oracle == "clean") {
    // The repro records the *absence* of failures (a healthy trace slice):
    // replay succeeds iff every invariant oracle stays clean.
    if (failures.empty()) {
      *message = "reproduced: clean (no oracle fired)";
      return 0;
    }
    *message = "did not reproduce: recorded clean but observed " +
               DescribeFailures(failures);
    return 1;
  }
  for (const OracleFailure& failure : failures) {
    if (failure.oracle == repro.oracle) {
      if (failure.detail == repro.detail) {
        *message = "reproduced: " + failure.oracle + ": " + failure.detail;
        return 0;
      }
      *message = "oracle " + repro.oracle +
                 " fired with a different detail.\n  recorded: " +
                 repro.detail + "\n  observed: " + failure.detail;
      return 1;
    }
  }
  *message = "did not reproduce: oracle " + repro.oracle +
             " stayed clean (observed: " +
             (failures.empty() ? std::string("no failures")
                               : DescribeFailures(failures)) +
             ")";
  return 1;
}

std::string ResolveReproPath(const std::string& given,
                             const std::string& exe_hint) {
  namespace fs = std::filesystem;
  std::error_code ec;
  auto canonical = [&](const fs::path& p) {
    fs::path abs = fs::absolute(p, ec);
    if (ec) {
      return p.string();
    }
    fs::path canon = fs::weakly_canonical(abs, ec);
    return ec ? abs.string() : canon.string();
  };
  fs::path given_path(given);
  if (fs::exists(given_path, ec)) {
    return canonical(given_path);
  }
  if (!given_path.is_absolute() && !exe_hint.empty()) {
    fs::path exe_dir = fs::path(exe_hint).parent_path();
    for (const fs::path& base : {exe_dir, exe_dir.parent_path()}) {
      if (base.empty()) {
        continue;
      }
      fs::path candidate = base / given_path;
      if (fs::exists(candidate, ec)) {
        return canonical(candidate);
      }
    }
  }
  return given;
}

}  // namespace splitio
