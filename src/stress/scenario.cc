#include "src/stress/scenario.h"

#include <cstring>
#include <vector>

#include "src/sim/random.h"
#include "src/workload/json_mini.h"

namespace splitio {

const char* NegativeControlName(NegativeControl control) {
  switch (control) {
    case NegativeControl::kNone: return "none";
    case NegativeControl::kSkipPreflush: return "skip-preflush";
    case NegativeControl::kMisorderedElevator: return "misordered-elevator";
    case NegativeControl::kDropCompletion: return "drop-completion";
  }
  return "?";
}

bool NegativeControlFromName(const char* name, NegativeControl* out) {
  for (NegativeControl control :
       {NegativeControl::kNone, NegativeControl::kSkipPreflush,
        NegativeControl::kMisorderedElevator,
        NegativeControl::kDropCompletion}) {
    if (std::strcmp(name, NegativeControlName(control)) == 0) {
      *out = control;
      return true;
    }
  }
  return false;
}

const char* FsKindName(StackConfig::FsKind fs) {
  switch (fs) {
    case StackConfig::FsKind::kExt4: return "ext4";
    case StackConfig::FsKind::kXfs: return "xfs";
    case StackConfig::FsKind::kCow: return "cow";
  }
  return "?";
}

const char* DeviceKindName(StackConfig::DeviceKind device) {
  switch (device) {
    case StackConfig::DeviceKind::kHdd: return "hdd";
    case StackConfig::DeviceKind::kSsd: return "ssd";
  }
  return "?";
}

namespace {

bool FsKindFromName(const std::string& name, StackConfig::FsKind* out) {
  for (StackConfig::FsKind fs :
       {StackConfig::FsKind::kExt4, StackConfig::FsKind::kXfs,
        StackConfig::FsKind::kCow}) {
    if (name == FsKindName(fs)) {
      *out = fs;
      return true;
    }
  }
  return false;
}

bool DeviceKindFromName(const std::string& name,
                        StackConfig::DeviceKind* out) {
  for (StackConfig::DeviceKind device :
       {StackConfig::DeviceKind::kHdd, StackConfig::DeviceKind::kSsd}) {
    if (name == DeviceKindName(device)) {
      *out = device;
      return true;
    }
  }
  return false;
}

}  // namespace

Scenario GenerateScenario(uint64_t seed, const GenOptions& options) {
  // Distinct streams for the stack shape and the program, so shrinking one
  // axis conceptually leaves the other's draw untouched (the shrinker works
  // on the materialized scenario, but keeping streams separate makes the
  // generator's behaviour easier to reason about when options change).
  Rng stack_rng(seed ^ 0x5bf0f2b9a1c5e3d7ULL);
  Rng prog_rng(seed ^ 0xc2b2ae3d27d4eb4fULL);

  Scenario s;
  s.seed = seed;

  // --- Stack shape ---
  s.stack.sched = kAllSchedKinds[stack_rng.Below(8)];
  uint64_t fs_draw = stack_rng.Below(options.allow_cow ? 5 : 4);
  s.stack.fs = fs_draw < 2   ? StackConfig::FsKind::kExt4
               : fs_draw < 4 ? StackConfig::FsKind::kXfs
                             : StackConfig::FsKind::kCow;
  s.stack.device = stack_rng.Below(2) == 0 ? StackConfig::DeviceKind::kHdd
                                           : StackConfig::DeviceKind::kSsd;
  if (options.allow_mq && stack_rng.Below(5) < 2) {
    s.stack.mq = true;
    s.stack.hw_queues = 1 + static_cast<int>(stack_rng.Below(4));
    s.stack.queue_depth = 1 + static_cast<int>(stack_rng.Below(8));
  }
  if (options.allow_faults && stack_rng.Below(4) == 0) {
    s.stack.transient_faults = true;
  }
  if (options.allow_crash && s.stack.fs != StackConfig::FsKind::kCow &&
      stack_rng.Below(4) == 0) {
    s.stack.crash = true;
  }
  // Appended after the historical draws so seeds generate the same stack
  // shape as before the policy-space refactor (only this extra axis is new).
  if (options.allow_random_spec && stack_rng.Below(4) == 0) {
    s.stack.use_spec = true;
    s.stack.spec = RandomPolicySpec(stack_rng);
  }

  // --- Program ---
  WorkloadProgram& p = s.program;
  p.num_procs = 1 + static_cast<int>(prog_rng.Below(
                        static_cast<uint64_t>(options.max_procs)));
  p.num_files = 1 + static_cast<int>(prog_rng.Below(
                        static_cast<uint64_t>(options.max_files)));
  p.priorities.resize(static_cast<size_t>(p.num_procs));
  for (int& prio : p.priorities) {
    prio = static_cast<int>(prog_rng.Below(8));
  }

  // Files a process may rename: the ones it owns (file % num_procs == proc).
  // Owner-only renames keep final paths (and EEXIST outcomes) independent of
  // cross-process scheduling — see the determinism contract in program.h.
  std::vector<std::vector<int>> owned(static_cast<size_t>(p.num_procs));
  for (int f = 0; f < p.num_files; ++f) {
    owned[static_cast<size_t>(f % p.num_procs)].push_back(f);
  }

  int num_ops = options.min_ops +
                static_cast<int>(prog_rng.Below(static_cast<uint64_t>(
                    options.max_ops - options.min_ops + 1)));
  int next_tag = 1;
  std::vector<int> last_tag(static_cast<size_t>(p.num_procs), 0);
  for (int i = 0; i < num_ops; ++i) {
    StressOp op;
    op.proc = static_cast<int>(prog_rng.Below(
        static_cast<uint64_t>(p.num_procs)));
    op.file = static_cast<int>(prog_rng.Below(
        static_cast<uint64_t>(p.num_files)));
    if (prog_rng.Below(3) != 0) {  // 2/3 of ops carry think time
      op.delay = static_cast<Nanos>(prog_rng.Below(
          static_cast<uint64_t>(options.max_delay)));
    }
    uint64_t kind_draw = prog_rng.Below(100);
    if (kind_draw < 45) {
      op.kind = StressOpKind::kWrite;
    } else if (kind_draw < 70) {
      op.kind = StressOpKind::kRead;
    } else if (kind_draw < 90) {
      op.kind = StressOpKind::kFsync;
    } else {
      op.kind = StressOpKind::kRename;
    }
    if (op.kind == StressOpKind::kWrite || op.kind == StressOpKind::kRead) {
      op.offset = prog_rng.Below(options.file_region_bytes);
      op.len = 1 + prog_rng.Below(options.max_io_bytes);
    } else if (op.kind == StressOpKind::kRename) {
      const std::vector<int>& mine = owned[static_cast<size_t>(op.proc)];
      if (mine.empty()) {
        op.kind = StressOpKind::kFsync;  // owns nothing: degrade gracefully
      } else {
        op.file = mine[prog_rng.Below(mine.size())];
        // Mostly fresh targets; occasionally reuse this process's previous
        // target so the -EEXIST path gets exercised (deterministically:
        // target paths are namespaced per process).
        int prev = last_tag[static_cast<size_t>(op.proc)];
        if (prev != 0 && prog_rng.Below(4) == 0) {
          op.tag = prev;
        } else {
          op.tag = next_tag++;
          last_tag[static_cast<size_t>(op.proc)] = op.tag;
        }
      }
    }
    p.ops.push_back(op);
  }
  return s;
}

bool SetStackSched(const std::string& name, StressStackConfig* stack) {
  if (SchedKindFromName(name.c_str(), &stack->sched)) {
    stack->use_spec = false;
    stack->spec = PolicySpec();
    return true;
  }
  if (!NamedPolicySpec(name, &stack->spec)) {
    return false;
  }
  stack->use_spec = true;
  return true;
}

std::string ScenarioToJson(const Scenario& scenario) {
  const StressStackConfig& st = scenario.stack;
  std::string out = "{\"seed\":" + std::to_string(scenario.seed);
  out += ",\"stack\":{\"sched\":\"";
  out += SchedName(st.sched);
  out += "\",\"fs\":\"";
  out += FsKindName(st.fs);
  out += "\",\"dev\":\"";
  out += DeviceKindName(st.device);
  out += "\",\"mq\":";
  out += st.mq ? "true" : "false";
  out += ",\"hw\":" + std::to_string(st.hw_queues);
  out += ",\"depth\":" + std::to_string(st.queue_depth);
  out += ",\"faults\":";
  out += st.transient_faults ? "true" : "false";
  out += ",\"crash\":";
  out += st.crash ? "true" : "false";
  out += ",\"control\":\"";
  out += NegativeControlName(st.control);
  out += "\"";
  if (st.use_spec) {
    out += ",\"spec\":";
    out += PolicySpecToJson(st.spec);
  }
  out += "},\"program\":";
  out += ProgramToJson(scenario.program);
  out += "}";
  return out;
}

namespace {

using jsonmini::Consume;
using jsonmini::Cursor;
using jsonmini::ParseBool;
using jsonmini::ParseInt;
using jsonmini::ParseString;
using jsonmini::ParseUint;
using jsonmini::SkipValue;

bool ParseStackObject(Cursor& c, StressStackConfig* out) {
  if (!Consume(c, '{')) {
    return false;
  }
  if (Consume(c, '}')) {
    return true;
  }
  for (;;) {
    std::string key;
    if (!ParseString(c, &key) || !Consume(c, ':')) {
      return false;
    }
    bool ok = true;
    if (key == "sched") {
      jsonmini::SkipWs(c);
      size_t token_offset = c.Offset();
      std::string name;
      ok = ParseString(c, &name);
      if (ok && !SchedKindFromName(name.c_str(), &out->sched)) {
        // Same error contract as the trace parsers: name the offending
        // token and where it sits — never fall back silently. The key
        // stores canonical kinds only (hybrids live under "spec").
        ok = c.FailAt(token_offset,
                      UnknownSchedMessage(name, CanonicalSpecs()));
      }
    } else if (key == "spec") {
      ok = ParsePolicySpec(c, &out->spec);
      out->use_spec = ok;
    } else if (key == "fs") {
      std::string name;
      ok = ParseString(c, &name) && FsKindFromName(name, &out->fs);
    } else if (key == "dev") {
      std::string name;
      ok = ParseString(c, &name) && DeviceKindFromName(name, &out->device);
    } else if (key == "mq") {
      ok = ParseBool(c, &out->mq);
    } else if (key == "hw") {
      int64_t v = 0;
      ok = ParseInt(c, &v);
      out->hw_queues = static_cast<int>(v);
    } else if (key == "depth") {
      int64_t v = 0;
      ok = ParseInt(c, &v);
      out->queue_depth = static_cast<int>(v);
    } else if (key == "faults") {
      ok = ParseBool(c, &out->transient_faults);
    } else if (key == "crash") {
      ok = ParseBool(c, &out->crash);
    } else if (key == "control") {
      std::string name;
      ok = ParseString(c, &name) &&
           NegativeControlFromName(name.c_str(), &out->control);
    } else {
      ok = SkipValue(c);
    }
    if (!ok) {
      return false;
    }
    if (Consume(c, '}')) {
      return true;
    }
    if (!Consume(c, ',')) {
      return false;
    }
  }
}

bool ParseScenarioObject(Cursor& c, Scenario* out) {
  if (!Consume(c, '{')) {
    return false;
  }
  if (Consume(c, '}')) {
    return true;
  }
  for (;;) {
    std::string key;
    if (!ParseString(c, &key) || !Consume(c, ':')) {
      return false;
    }
    bool ok = true;
    if (key == "seed") {
      ok = ParseUint(c, &out->seed);
    } else if (key == "stack") {
      ok = ParseStackObject(c, &out->stack);
    } else if (key == "program") {
      // Find the extent of the program object by balancing braces, then
      // reuse ProgramFromJson on the slice.
      jsonmini::SkipWs(c);
      const char* start = c.p;
      if (!SkipValue(c)) {
        return false;
      }
      jsonmini::ParseError perr;
      ok = ProgramFromJson(std::string(start, c.p), &out->program, &perr);
      if (!ok) {
        // Re-anchor the sub-parse's offset onto the enclosing document.
        c.failed = true;
        c.err_offset = static_cast<size_t>(start - c.begin) + perr.offset;
        c.err_message = "bad program";
      }
    } else {
      ok = SkipValue(c);
    }
    if (!ok) {
      return false;
    }
    if (Consume(c, '}')) {
      return true;
    }
    if (!Consume(c, ',')) {
      return false;
    }
  }
}

}  // namespace

bool ScenarioFromJson(const std::string& json, Scenario* out,
                      jsonmini::ParseError* err) {
  Cursor c(json);
  *out = Scenario();
  if (!ParseScenarioObject(c, out)) {
    c.ReportError(err, "malformed scenario JSON");
    return false;
  }
  if (out->stack.hw_queues < 1 || out->stack.queue_depth < 1) {
    c.ReportError(err, "mq topology must have >=1 queue of depth >=1");
    return false;
  }
  return true;
}

}  // namespace splitio
