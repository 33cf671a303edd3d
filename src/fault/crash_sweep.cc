#include "src/fault/crash_sweep.h"

#include <algorithm>
#include <memory>

#include "src/core/storage_stack.h"
#include "src/fault/crash_monitor.h"
#include "src/fault/fault_injector.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {

std::string CrashSweepResult::FirstViolation() const {
  for (const CrashReport& report : reports) {
    if (!report.ok()) {
      return DescribeViolations(report);
    }
  }
  return "";
}

namespace {

struct WorkloadCounts {
  uint64_t acked_ok = 0;
  uint64_t fsync_errors = 0;
  uint64_t write_errors = 0;
};

// WAL pattern: append one block, fsync, repeat. The acked prefix of this
// file is what invariant 4 (WAL prefix) protects.
Task<void> WalAppender(OsKernel& kernel, Process& proc, int64_t ino,
                       Nanos until, WorkloadCounts* counts) {
  uint64_t offset = 0;
  while (Simulator::current().Now() < until) {
    int64_t n = co_await kernel.Write(proc, ino, offset, kPageSize);
    if (n < 0) {
      ++counts->write_errors;
    }
    offset += kPageSize;
    int err = co_await kernel.Fsync(proc, ino);
    if (err == 0) {
      ++counts->acked_ok;
    } else {
      ++counts->fsync_errors;
    }
  }
}

// Checkpoint pattern: a burst of scattered writes, then one fsync. Its
// allocations entangle with the WAL's transactions in ext4 ordered mode —
// the commit-time dependencies the checker verifies.
Task<void> DbWriter(OsKernel& kernel, Process& proc, int64_t ino,
                    uint64_t region_bytes, uint64_t burst_pages,
                    uint64_t seed, Nanos until, WorkloadCounts* counts) {
  Rng rng(seed);
  uint64_t slots = region_bytes / kPageSize;
  while (Simulator::current().Now() < until) {
    for (uint64_t i = 0; i < burst_pages; ++i) {
      uint64_t page = rng.Below(slots);
      int64_t n =
          co_await kernel.Write(proc, ino, page * kPageSize, kPageSize);
      if (n < 0) {
        ++counts->write_errors;
      }
    }
    int err = co_await kernel.Fsync(proc, ino);
    if (err == 0) {
      ++counts->acked_ok;
    } else {
      ++counts->fsync_errors;
    }
    co_await Delay(Msec(150));
  }
}

Task<void> CrashSampler(CrashMonitor& monitor, FaultInjector& injector,
                        std::vector<Nanos> times,
                        std::vector<CrashImage>* images) {
  Nanos last = 0;
  for (Nanos when : times) {
    co_await Delay(when - last);
    last = when;
    images->push_back(
        monitor.Snapshot(injector.crash_rng(), injector.config()));
  }
}

// Creates the two files, then spawns the writers (a coroutine may not be a
// capturing temporary lambda, so this is a free function).
Task<void> SetupWorkloads(StorageStack& stack, Process& wal_proc,
                          Process& db_proc, Nanos until, uint64_t seed,
                          int64_t* wal_ino_out, WorkloadCounts* wal,
                          WorkloadCounts* db) {
  int64_t wino = co_await stack.kernel().Creat(wal_proc, "/wal");
  int64_t dino = co_await stack.kernel().Creat(db_proc, "/db");
  *wal_ino_out = wino;
  Simulator::current().Spawn(
      WalAppender(stack.kernel(), wal_proc, wino, until, wal));
  Simulator::current().Spawn(DbWriter(stack.kernel(), db_proc, dino,
                                      64ULL << 20, 16, seed + 17, until, db));
}

}  // namespace

CrashSweepResult RunCrashSweep(const CrashSweepOptions& options) {
  Simulator sim;
  CpuModel cpu(8);

  StackConfig config;
  config.device = options.ssd ? StackConfig::DeviceKind::kSsd
                              : StackConfig::DeviceKind::kHdd;
  config.fs =
      options.xfs ? StackConfig::FsKind::kXfs : StackConfig::FsKind::kExt4;
  config.volatile_write_cache = true;
  config.layout.durability_barriers = options.durability_barriers;
  config.journal.buggy_skip_preflush = options.buggy_skip_preflush;
  config.journal.commit_interval = Sec(1);
  if (options.mq_hw_queues > 1 || options.mq_queue_depth > 1) {
    config.mq.enabled = true;
    config.mq.nr_hw_queues = std::max(1, options.mq_hw_queues);
    config.mq.queue_depth = std::max(1, options.mq_queue_depth);
  }
  // Give flushes a visible (but modest) cost so barrier traffic exercises
  // the elevators rather than completing for free.
  config.hdd.flush_latency = Usec(500);
  config.ssd.flush_latency = Usec(100);

  SchedInstance sched = MakeSched(options.sched);
  StorageStack stack(config, &cpu, std::move(sched.split),
                     std::move(sched.legacy));

  FaultConfig fault_config;
  fault_config.seed = options.seed;
  if (options.inject_faults) {
    fault_config.write_eio_rate = 0.02;
    fault_config.read_eio_rate = 0.01;
    fault_config.latency_spike_rate = 0.01;
  }
  FaultInjector injector(fault_config);
  stack.device().set_fault_hook(&injector);

  CrashMonitor monitor(&stack.block(), &stack.device());
  if (Ext4Sim* e4 = stack.ext4()) {
    monitor.AttachJournal(&e4->journal());
  }
  monitor.AttachKernel(&stack.kernel());

  std::vector<CrashImage> images;
  if (options.record_crash_points > 0) {
    monitor.SampleOnJournalRecord(
        &injector, &images,
        static_cast<size_t>(options.record_crash_points));
  }

  stack.Start();

  Process* wal_proc = stack.NewProcess("waldb");
  Process* db_proc = stack.NewProcess("dbwriter");
  WorkloadCounts wal_counts;
  WorkloadCounts db_counts;
  int64_t wal_ino = 0;

  // Randomized crash points over the middle and tail of the run (the head
  // is warm-up: files created, first transactions forming).
  std::vector<Nanos> crash_times;
  Rng crash_time_rng(options.seed ^ 0x9e3779b97f4a7c15ULL);
  Nanos lo = options.horizon / 4;
  for (int i = 0; i < options.crash_points; ++i) {
    crash_times.push_back(
        lo + static_cast<Nanos>(crash_time_rng.Below(
                 static_cast<uint64_t>(options.horizon - lo))));
  }
  std::sort(crash_times.begin(), crash_times.end());
  crash_times.erase(std::unique(crash_times.begin(), crash_times.end()),
                    crash_times.end());

  sim.Spawn(SetupWorkloads(stack, *wal_proc, *db_proc, options.horizon,
                           options.seed, &wal_ino, &wal_counts, &db_counts));
  sim.Spawn(CrashSampler(monitor, injector, crash_times, &images));

  sim.Run(options.horizon);

  CrashSweepResult result;
  result.crash_points = images.size();
  for (const CrashImage& img : images) {
    CrashReport report =
        CheckCrashImage(monitor, img, /*strict_journal_order=*/!options.xfs);
    CheckWalPrefix(monitor, img, wal_ino, &report);
    result.total_violations += report.violations.size();
    result.replayed_commits += report.replayed_commits;
    result.checked_commits += report.checked_commits;
    result.checked_acks += report.checked_acks;
    result.reports.push_back(std::move(report));
  }
  result.wal_acked_ok = wal_counts.acked_ok;
  result.fsync_errors = wal_counts.fsync_errors + db_counts.fsync_errors;
  result.write_errors = wal_counts.write_errors + db_counts.write_errors;
  result.device_flushes = stack.device().flushes();
  result.faults_injected =
      injector.eios_injected() + injector.spikes_injected();
  return result;
}

}  // namespace splitio
