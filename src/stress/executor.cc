#include "src/stress/executor.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/storage_stack.h"
#include "src/fault/crash_monitor.h"
#include "src/fault/fault_injector.h"
#include "src/metrics/counters.h"
#include "src/obs/trace_sink.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/stress/misordered_elevator.h"

namespace splitio {

namespace {

// Every kth completion swallowed for the drop-completion negative control.
// Small so that even tiny minimized programs (file creation + reaper fsyncs
// alone) strand a request.
constexpr uint64_t kDropCompletionInterval = 3;

struct RunState {
  std::vector<int64_t> file_inos;    // by file index, set before workers run
  std::vector<int64_t> op_results;   // aligned with program.ops
  std::vector<Nanos> op_latency;     // aligned with program.ops
  int procs_remaining = 0;
  Event procs_done;
  bool all_done = false;
  Nanos done_at = 0;
};

// One process's slice of the program, executed in program order. A
// coroutine may not be a capturing lambda, so this is a free function; all
// pointees outlive the simulation (they live in ExecuteScenario's frame).
Task<void> RunProcOps(StorageStack* stack, Process* proc, int proc_index,
                      const WorkloadProgram* program, RunState* state) {
  OsKernel& kernel = stack->kernel();
  for (size_t i = 0; i < program->ops.size(); ++i) {
    const StressOp& op = program->ops[i];
    if (op.proc != proc_index) {
      continue;
    }
    if (op.delay > 0) {
      co_await Delay(op.delay);
    }
    int64_t ino = state->file_inos[static_cast<size_t>(op.file)];
    int64_t result = 0;
    Nanos issued_at = Simulator::current().Now();
    switch (op.kind) {
      case StressOpKind::kWrite:
        result = co_await kernel.Write(*proc, ino, op.offset, op.len);
        break;
      case StressOpKind::kRead:
        result = co_await kernel.Read(*proc, ino, op.offset, op.len);
        break;
      case StressOpKind::kFsync:
        result = co_await kernel.Fsync(*proc, ino);
        break;
      case StressOpKind::kRename:
        // Per-process target namespace — see the determinism contract in
        // program.h.
        result = co_await kernel.Rename(
            *proc, ino,
            "/p" + std::to_string(proc_index) + "_r" + std::to_string(op.tag));
        break;
    }
    state->op_results[i] = result;
    state->op_latency[i] = Simulator::current().Now() - issued_at;
  }
  if (--state->procs_remaining == 0) {
    state->procs_done.NotifyAll();
  }
}

// Creates the files, spawns the per-process workers, waits for all of them,
// then fsyncs every file so the stack is quiescent (modulo background
// journal/writeback tails) when the horizon is reached.
Task<void> RunProgram(StorageStack* stack, Process* reaper,
                      std::vector<Process*> procs,
                      const WorkloadProgram* program, RunState* state) {
  OsKernel& kernel = stack->kernel();
  for (int f = 0; f < program->num_files; ++f) {
    int64_t ino = co_await kernel.Creat(*reaper, "/f" + std::to_string(f));
    state->file_inos.push_back(ino);
  }
  state->procs_remaining = program->num_procs;
  for (int pi = 0; pi < program->num_procs; ++pi) {
    Simulator::current().Spawn(
        RunProcOps(stack, procs[static_cast<size_t>(pi)], pi, program, state));
  }
  while (state->procs_remaining > 0) {  // condition-variable semantics
    co_await state->procs_done.Wait();
  }
  for (int64_t ino : state->file_inos) {
    if (ino >= 0) {
      co_await kernel.Fsync(*reaper, ino);
    }
  }
  state->all_done = true;
  state->done_at = Simulator::current().Now();
}

}  // namespace

ExecResult ExecuteScenario(const Scenario& scenario,
                           const ExecOptions& options) {
  const StressStackConfig& st = scenario.stack;
  const WorkloadProgram& program = scenario.program;

  Simulator sim;
  CpuModel cpu(8);

  StackConfig config;
  config.device = st.device;
  config.fs = st.fs;
  if (st.mq) {
    config.mq.enabled = true;
    config.mq.nr_hw_queues = std::max(1, st.hw_queues);
    config.mq.queue_depth = std::max(1, st.queue_depth);
  }
  if (st.crash) {
    ConfigureCrashMode(&config, /*durability_barriers=*/true);
  }
  if (st.control == NegativeControl::kSkipPreflush) {
    config.journal.buggy_skip_preflush = true;
  }

  SchedInstance inst;
  if (st.control == NegativeControl::kMisorderedElevator) {
    inst.legacy = std::make_unique<MisorderedElevator>();
  } else {
    inst = st.use_spec ? MakeSched(st.spec) : MakeSched(st.sched);
  }
  StorageStack stack(config, &cpu, std::move(inst.split),
                     std::move(inst.legacy));

  if (st.control == NegativeControl::kDropCompletion) {
    stack.block().set_drop_completion_interval(kDropCompletionInterval);
  }

  // Attached even when fault-free (all rates zero): the crash sampler draws
  // its torn-write / volatile-loss decisions from the injector's dedicated
  // crash stream.
  FaultConfig fault_config;
  fault_config.seed = scenario.seed;
  if (st.transient_faults) {
    fault_config.EnableTransientFaults();
  }
  FaultInjector injector(fault_config);
  stack.device().set_fault_hook(&injector);

  std::unique_ptr<CrashMonitor> monitor;
  std::vector<CrashImage> images;
  if (st.crash) {
    monitor = std::make_unique<CrashMonitor>(stack);
    if (options.crash_points > 0) {
      monitor->SampleOnJournalRecord(
          &injector, &images, static_cast<size_t>(options.crash_points));
    }
  }

  obs::TraceSink sink;
  if (options.trace) {
    sink.Attach();  // before Start(), so background-task events are captured
  }

  Counters before = g_counters;
  stack.Start();

  Process* reaper = stack.NewProcess("stress-reaper");
  std::vector<Process*> procs;
  for (int pi = 0; pi < program.num_procs; ++pi) {
    Process* p = stack.NewProcess("stress-p" + std::to_string(pi));
    if (static_cast<size_t>(pi) < program.priorities.size()) {
      p->set_priority(program.priorities[static_cast<size_t>(pi)]);
    }
    procs.push_back(p);
  }

  RunState state;
  state.op_results.assign(program.ops.size(), kOpNotRun);
  state.op_latency.assign(program.ops.size(), 0);

  if (monitor && options.crash_points > 0) {
    // Random-time crash images, complementing the adversarial
    // SampleOnJournalRecord images.
    sim.Spawn(monitor->SampleAtTimes(
        &injector,
        RandomCrashTimes(scenario.seed, options.horizon, options.crash_points),
        &images));
  }

  sim.Spawn(RunProgram(&stack, reaper, procs, &program, &state));
  sim.Run(options.horizon);

  ExecResult result;
  result.all_ops_completed = state.all_done;
  result.ops_done_at = state.done_at;
  result.op_results = std::move(state.op_results);
  result.op_latency = std::move(state.op_latency);
  result.file_sizes.assign(static_cast<size_t>(program.num_files), 0);
  for (size_t f = 0; f < state.file_inos.size(); ++f) {
    if (state.file_inos[f] >= 0) {
      result.file_sizes[f] = stack.fs().FileSize(state.file_inos[f]);
    }
  }

  result.submitted = stack.block().total_submitted();
  result.completed = stack.block().total_completed();
  result.merged = stack.block().total_merged();
  result.inflight_at_end = stack.block().inflight();
  result.elevator_empty = stack.block().elevator().Empty();
  result.queue_peak = stack.block().queue_peak();
  result.device_bytes_read = stack.device().total_bytes_read();
  result.device_bytes_written = stack.device().total_bytes_written();
  result.device_busy = stack.device().busy_time();
  result.device_flushes = stack.device().flushes();

  Counters delta = g_counters.Delta(before);
  result.pages_dirtied = delta.pages_dirtied;
  result.wb_pages_flushed = delta.wb_pages_flushed;
  result.faults_injected =
      injector.eios_injected() + injector.spikes_injected();

  if (options.trace) {
    sink.Detach();
    result.traced = true;
    result.spans = obs::BuildSpans(sink.events());
  }

  if (monitor) {
    result.crash_points = images.size();
    result.crash_reports.reserve(images.size());
    for (const CrashImage& img : images) {
      // Invariants 1–3 only: CheckWalPrefix assumes an append-only file,
      // which random-offset programs are not.
      result.crash_reports.push_back(CheckCrashImage(
          *monitor, img,
          /*strict_journal_order=*/st.fs != StackConfig::FsKind::kXfs));
    }
  }
  return result;
}

}  // namespace splitio
