// Cheap process-wide event counters for the simulator hot paths.
//
// Every layer increments a plain uint64 field — no locks, no maps, no
// formatting on the hot path. Counters accumulate across all Simulator
// instances in the process, so a bench binary that runs one stack per
// scheduler reports totals for the whole run. The bench harness prints
// them as a machine-readable BENCHJSON line at exit; the bench runner
// folds them into BENCH_results.json.
#ifndef SRC_METRICS_COUNTERS_H_
#define SRC_METRICS_COUNTERS_H_

#include <cstdint>

namespace splitio {

// The counter fields, in BENCHJSON key order. This one list generates the
// struct, Delta, Add, and the BENCHJSON counters object
// (bench/common/report.h); X(name) is applied to each field.
#define SPLITIO_COUNTER_FIELDS(X)                                            \
  /* Simulator: wake-ups resumed, and how many took the O(1) same-time */    \
  /* FIFO fast path instead of the binary heap. */                           \
  X(sim_events)                                                              \
  X(sim_immediate)                                                           \
  /* Page cache. */                                                          \
  X(cache_lookups)                                                           \
  X(cache_hits)                                                              \
  X(pages_dirtied)                                                           \
  /* Block layer. */                                                         \
  X(block_submitted)                                                         \
  X(block_merged)                                                            \
  X(block_completed)                                                         \
  /* Device persistence / fault injection. */                                \
  X(device_flushes)                                                          \
  X(faults_injected)                                                         \
  X(wb_errors)                                                               \
  /* File system / writeback activity. */                                    \
  X(journal_commits)  /* jbd2 commit records + XFS log forces */             \
  X(wb_pages_flushed) /* pages handed to the block layer */                  \
  X(mq_kicks)         /* hardware-context wakeups (blk-mq) */                \
  /* Simulated nanoseconds the device spent servicing commands (media */     \
  /* transfers, fault-injected stalls, cache flushes). With parallel */      \
  /* service channels the per-channel times add up, so over an interval */   \
  /* this can exceed wall (simulated) time — it is occupancy, not */         \
  /* utilization. Makes busy fraction available in BENCHJSON even with */    \
  /* telemetry off. */                                                       \
  X(device_busy_ns)                                                          \
  /* Heap allocations (global operator new, src/metrics/alloc_hook.cc) — */  \
  /* a cheap proxy for allocator pressure on the simulation hot path. */     \
  X(allocs)

struct Counters {
#define SPLITIO_COUNTER_DECLARE(name) uint64_t name = 0;
  SPLITIO_COUNTER_FIELDS(SPLITIO_COUNTER_DECLARE)
#undef SPLITIO_COUNTER_DECLARE

  // Field-wise `*this - earlier`. Counters only grow, so snapshotting before
  // a stack runs and subtracting afterwards attributes activity to that
  // stack even though the globals accumulate across the whole binary.
  Counters Delta(const Counters& earlier) const {
    Counters d;
#define SPLITIO_COUNTER_DELTA(name) d.name = name - earlier.name;
    SPLITIO_COUNTER_FIELDS(SPLITIO_COUNTER_DELTA)
#undef SPLITIO_COUNTER_DELTA
    return d;
  }

  // Field-wise accumulation, e.g. summing the deltas of several runs.
  void Add(const Counters& other) {
#define SPLITIO_COUNTER_ADD(name) name += other.name;
    SPLITIO_COUNTER_FIELDS(SPLITIO_COUNTER_ADD)
#undef SPLITIO_COUNTER_ADD
  }
};

// Per-thread counters: each simulation runs single-threaded, but the stress
// runner executes independent simulations on worker threads, each of which
// gets its own counter block (and its own simulator — see src/sim).
inline thread_local Counters g_counters;

inline Counters& counters() { return g_counters; }

}  // namespace splitio

#endif  // SRC_METRICS_COUNTERS_H_
