// Declarative scheduling-policy space (Halide-style algorithm/schedule
// split).
//
// A scheduler is not a class: it is a PolicySpec — a composition of
// orthogonal primitives, one per layer of the split framework (§3, §4.2):
//
//   tag       how the memory hooks react to cause tags (ignore / count /
//             preliminary cost charging);
//   dispatch  the block-level discipline (legacy elevators, FIFO, stride
//             virtual-time fair queuing, deadline-first with sorted
//             batches);
//   key       what a fair-queuing queue is keyed by (process or tenant
//             account);
//   budget    admission accounting at the system-call layer (none, stride
//             passes, hierarchical token buckets on split-level
//             accounting, or raw syscall-byte tokens à la SCS);
//   writeback how dirty data reaches the device (kernel daemon, daemon
//             with a capped dirty margin + write throttling, or
//             scheduler-owned writeback).
//
// The paper's schedulers are points in this space (the spec builders
// below); hybrids like deadline-over-tokens are just other points.
// RegisteredSpecs() is the one list of scheduler names. MakeSched
// (src/core/sched_factory.h) builds a scheduler from a spec, and
// ComposedScheduler (composed.h) interprets it; tools/sched_search searches
// the space.
//
// This header also owns the per-primitive config structs; it depends only
// on src/sim/time.h so every layer can include it.
#ifndef SRC_SCHED_POLICY_H_
#define SRC_SCHED_POLICY_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "src/sim/time.h"

namespace splitio {

class Rng;

namespace jsonmini {
struct Cursor;
struct ParseError;
}  // namespace jsonmini

// ---------------------------------------------------------------------------
// Per-primitive configs.
// ---------------------------------------------------------------------------

// Stride fair-queuing knobs (AFQ, §5.1).
struct AfqConfig {
  // How far (in charged cost units = normalized bytes) a process's pass may
  // run ahead of the minimum before its write-path syscalls are delayed.
  // Charging happens ONLY at block-request dispatch/completion (the paper's
  // design): a workload that causes no device I/O is never throttled.
  double pass_slack = 4.0 * 1024 * 1024;
  Nanos idle_window = Msec(2);  // read anticipation
  // Keep serving the same reader while its pass is within this much of the
  // minimum (slice stickiness — preserves sequential locality like CFQ's
  // time slices).
  double read_stickiness = 2.0 * 1024 * 1024;

  bool operator==(const AfqConfig&) const = default;
};

// Fsync-deadline discipline knobs (Split-Deadline, §5.2).
struct SplitDeadlineConfig {
  Nanos default_read_deadline = Msec(100);
  Nanos default_fsync_deadline = Msec(500);
  // Issue an fsync directly only when flushing the file's remaining dirty
  // data is estimated to occupy the device for at most this long; otherwise
  // spread the cost via async writeback first. A cost (not byte) threshold:
  // scattered dirty pages are far more expensive than their byte count
  // suggests.
  Nanos fsync_direct_cost = Msec(25);
  // Scheduler-owned writeback (requires cache writeback_daemon = false).
  bool own_writeback = false;
  Nanos own_writeback_period = Msec(25);
  uint64_t own_writeback_batch_pages = 512;
  // Split-Pdflush mode: throttle write syscalls once dirty data exceeds
  // the cache's background-writeback limit by this margin — pdflush still
  // runs, but the ammunition it can dump at once is bounded.
  uint64_t pdflush_dirty_margin_bytes = 32ULL << 20;
  int fifo_batch = 16;
  int writes_starved = 2;

  bool operator==(const SplitDeadlineConfig&) const = default;
};

// Split-level token accounting knobs (Split-Token, §5.3).
struct SplitTokenConfig {
  Nanos refill_period = Msec(10);
  // Burst capacity as seconds of rate.
  double burst_seconds = 0.5;
  // Normalized cost (bytes) of one seek-equivalent, preliminary model. The
  // block-level model replaces this with measured service time.
  double seek_equivalent_bytes = 512.0 * 1024;
  // Disable the block-level revision pass (for the ablation bench).
  bool revise_at_block_level = true;

  bool operator==(const SplitTokenConfig&) const = default;
};

// Syscall-byte token accounting knobs (SCS baseline, §2.3.3).
struct ScsTokenConfig {
  Nanos refill_period = Msec(10);
  double burst_seconds = 0.5;
  double fsync_cost = 4096;  // flat charge per fsync call
  // The paper notes Craciunas et al. had to modify the file system to tell
  // SCS which reads are cache hits [19]; with the modification, hits are
  // not charged (but the SCS logic still runs on every call — that cost is
  // modeled by per_call_cpu). Set false for the unmodified variant.
  bool cache_hit_exemption = true;
  Nanos per_call_cpu = Usec(2);

  bool operator==(const ScsTokenConfig&) const = default;
};

// Legacy block-deadline elevator knobs (src/block/block_deadline.h).
struct BlockDeadlineConfig {
  Nanos read_expiry = Msec(500);
  Nanos write_expiry = Sec(5);
  int fifo_batch = 16;
  int writes_starved = 2;

  bool operator==(const BlockDeadlineConfig&) const = default;
};

// Legacy CFQ elevator knobs (src/block/cfq.h).
struct CfqConfig {
  Nanos base_slice = Msec(20);   // device time per weight unit
  Nanos idle_window = Msec(2);   // anticipation window for sync readers

  bool operator==(const CfqConfig&) const = default;
};

// ---------------------------------------------------------------------------
// The policy axes.
// ---------------------------------------------------------------------------

// What the memory (buffer-dirty / buffer-free) hooks do with cause tags.
enum class TagRule {
  kNone,    // hooks ignored (block-only policies, SCS, split-deadline)
  kCount,   // hooks counted but otherwise inert (split-noop's overhead probe)
  kCauses,  // preliminary cost charged to the causes, revised at completion
};

// Block-level dispatch discipline.
enum class DispatchKind {
  kLegacyNoop,      // single-queue pass-through elevator
  kLegacyCfq,       // single-queue CFQ time slices
  kLegacyDeadline,  // single-queue block-request deadlines
  kFifo,            // mq-aware pass-through
  kStride,          // per-key read queues by minimum stride pass + write FIFO
  kDeadline,        // read deadlines + urgent fsync writes + sorted batches
};

// What a fair-queuing queue (and its pass) is keyed by.
enum class QueueKey {
  kPid,      // per-process (AFQ)
  kAccount,  // per token account = per tenant (tenant-afq hybrid)
};

// Admission accounting at the system-call layer.
enum class BudgetKind {
  kNone,
  kStridePass,     // sleep write-path syscalls while pass exceeds the floor
  kHierTokens,     // split-level accounting into hierarchical token buckets
  kSyscallTokens,  // raw syscall-byte tokens at entry (SCS baseline)
};

// How dirty data reaches the device.
enum class WritebackKind {
  kDaemon,         // kernel writeback daemon, untouched
  kPdflushCapped,  // daemon on, write syscalls throttled at a dirty margin
  kSchedOwned,     // daemon off, scheduler flushes when no deadline at risk
};

// A scheduler, declaratively. All config sub-structs are always present
// (axes that do not use them ignore them), which keeps serialization
// total and round-trips byte-identical.
struct PolicySpec {
  std::string name;
  TagRule tag = TagRule::kNone;
  DispatchKind dispatch = DispatchKind::kFifo;
  QueueKey key = QueueKey::kPid;
  BudgetKind budget = BudgetKind::kNone;
  WritebackKind writeback = WritebackKind::kDaemon;

  AfqConfig stride;
  SplitDeadlineConfig deadline;
  SplitTokenConfig token;
  ScsTokenConfig scs;
  BlockDeadlineConfig legacy_deadline;
  CfqConfig legacy_cfq;

  bool operator==(const PolicySpec&) const = default;
};

// ---------------------------------------------------------------------------
// Canonical and hybrid spec builders.
// ---------------------------------------------------------------------------

// Block-level baselines: legacy single-queue elevators with no split-level
// axis (src/block/noop.h, cfq.h, block_deadline.h).
PolicySpec BlockNoopSpec();
PolicySpec CfqSpec(const CfqConfig& config = CfqConfig());
PolicySpec BlockDeadlineSpec(
    const BlockDeadlineConfig& config = BlockDeadlineConfig());

// No-op split scheduler: attaches every hook but performs no scheduling —
// all I/O dispatched FIFO, all hooks accounted but ignored. Measures the
// overhead of the framework itself (Figure 9) against a no-op block-level
// elevator. tag=count, dispatch=fifo; ComposedScheduler::dirty_events() is
// the tag-rule counter.
PolicySpec SplitNoopSpec();

// AFQ — Actually Fair Queuing (§5.1), a two-level stride scheduler:
//  - reads are scheduled at the block level (below the cache, so hits stay
//    free) from per-process queues, picked by minimum stride pass, with
//    CFQ-style anticipation for synchronous readers;
//  - writes and the calls that cause writes (fsync, creat, mkdir) are
//    scheduled at the system-call level, *before* the file system
//    entangles them in a journal transaction: a process whose stride pass
//    runs ahead of its peers sleeps in the entry hook;
//  - block-level writes are dispatched immediately: below the journal, a
//    low-priority block may be a prerequisite of a high-priority fsync.
// Whenever a block request is dispatched, its estimated device cost (seek
// model) is charged to the responsible processes from the request's cause
// tag, so delegated writeback and journal I/O are billed correctly.
// tag=causes, dispatch=stride, budget=stride-pass (StrideEngine).
PolicySpec AfqSpec(const AfqConfig& config = AfqConfig());

// Split-Deadline (§5.2): deadlines attach to *fsync calls* instead of block
// writes. Built on the Block-Deadline structure, with three changes:
//  - the block-write deadline queue is replaced by an fsync-deadline queue
//    at the system-call level: concurrent fsyncs are admitted in deadline
//    order;
//  - before issuing a costly fsync (estimated from the buffer-dirty hook's
//    running count of the file's dirty data), the scheduler launches
//    asynchronous writeback of the file and waits for the dirty amount to
//    drop, so the eventual journal commit is cheap and other deadlines are
//    unaffected;
//  - optionally the scheduler owns writeback entirely (the paper's
//    recommended mode, §7.1.2): the kernel daemon is disabled and the
//    scheduler flushes dirty data only when no deadline is at risk. With
//    the daemon left on (Split-Pdflush), write syscalls are throttled at a
//    lower dirty cap instead.
// dispatch=deadline, writeback picked from config.own_writeback
// (DeadlineEngine).
PolicySpec SplitDeadlineSpec(
    const SplitDeadlineConfig& config = SplitDeadlineConfig());

// Split-Token (§5.3): token-bucket resource limiting with split-level
// accounting. Tokens are *normalized bytes*: the cost of an I/O pattern as
// the equivalent amount of sequential I/O. Accounting happens twice:
//  - promptly, at the buffer-dirty hook, using a preliminary model based on
//    the randomness of offsets within the file;
//  - accurately, at block-level completion, where the real locations,
//    amplification (journal writes!) and achieved sequentiality are known;
//    the preliminary charge carried by the request is revised (extra
//    charge or refund).
// Only while an account's balance is negative are its write-path system
// calls (write, fsync, creat, mkdir) and block-level reads throttled.
// Block-level writes are never throttled (ordering), and system-call reads
// never are (cache hits stay free). tag=causes, dispatch=fifo,
// budget=hier-tokens (TokenEngine); the account-limit API is
// ComposedScheduler's.
PolicySpec SplitTokenSpec(const SplitTokenConfig& config = SplitTokenConfig());

// SCS-Token: the system-call-scheduling token bucket of Craciunas et al.
// [18, 19], the paper's baseline (§2.3.3). All accounting and throttling
// happen at the system-call level: every read and write call is charged
// its *byte count* — the framework cannot tell cache hits from misses,
// overwrites of buffered data from new writes, or sequential from random
// I/O — and calls block at entry while the account balance is negative.
// The block level is a pass-through FIFO and the memory hooks are unused.
// Reproduced consequences: random I/O is under-charged (isolation failure,
// Figure 6) and in-memory I/O over-charged (an 837x slowdown for write-mem,
// Figure 14). dispatch=fifo, budget=syscall-tokens (ScsEngine).
PolicySpec ScsTokenSpec(const ScsTokenConfig& config = ScsTokenConfig());

// Hybrids: fsync-deadline dispatch *over* hierarchical token budgets, and
// stride fair queuing between tenant accounts instead of processes.
PolicySpec DeadlineTokenSpec();
PolicySpec TenantAfqSpec();

// ---------------------------------------------------------------------------
// The registry: the one list of scheduler names.
// ---------------------------------------------------------------------------

// A registered scheduler: its name and the builder of its default spec
// (whose name it is).
struct RegisteredSpec {
  const char* name;
  PolicySpec (*build)();
};

// How many registry entries are canonical kinds: they come first, in
// SchedKind order (src/core/sched_factory.h indexes them by kind); the
// hybrids follow.
inline constexpr size_t kCanonicalSpecCount = 8;

// Every registered scheduler. Static storage: reading it never allocates.
std::span<const RegisteredSpec> RegisteredSpecs();

// Builds the registered spec with this name. Returns false for unknown
// names.
bool NamedPolicySpec(const std::string& name, PolicySpec* out);

// Structural validity: inter-axis constraints a ComposedScheduler (or a
// legacy elevator) can actually interpret. Empty string when valid, else a
// human-readable reason.
std::string ValidateSpec(const PolicySpec& spec);

// ---------------------------------------------------------------------------
// Serialization (json_mini dialect; used by stress repros and sched_search).
// Serialize(Parse(s)) is byte-identical to s for anything Serialize emits.
// ---------------------------------------------------------------------------

std::string PolicySpecToJson(const PolicySpec& spec);

// Parses a spec object at the cursor (for embedding in larger documents).
// On failure the cursor records the offending token and its byte offset —
// the same contract as the trace parsers; unknown axis values never fall
// back silently.
bool ParsePolicySpec(jsonmini::Cursor& c, PolicySpec* out);

// Whole-string convenience wrapper.
bool PolicySpecFromJson(const std::string& json, PolicySpec* out,
                        jsonmini::ParseError* error = nullptr);

// A structurally valid pseudo-random spec (stress differential axis and
// sched_search sampling). Deterministic in the rng stream; the name encodes
// the drawn axes ("x-<dispatch>-<budget>[-a][-o|-c]").
PolicySpec RandomPolicySpec(Rng& rng);

}  // namespace splitio

#endif  // SRC_SCHED_POLICY_H_
