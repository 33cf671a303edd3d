// Cross-layer trace event taxonomy.
//
// One event type per interesting transition in a request's life, from the
// syscall boundary down to the device (the split-level thesis is about
// *where information lives*, so the trace records every layer a request —
// or the work that became a request — passes through):
//
//   syscall_enter/exit   src/syscall   a process enters/leaves the kernel
//   page_dirty           src/cache     write work enters the page cache
//   wb_kick              src/cache,    writeback woken (background daemon
//                        src/sched     or a scheduler that owns writeback)
//   txn_join             src/fs        an inode joins a jbd2 transaction /
//                                      an XFS log item is pinned
//   txn_commit           src/fs        a transaction/log force made durable
//   elv_add/merge        src/block     request entered the elevator (or was
//                                      back-merged into an earlier one)
//   elv_dispatch         src/block     the elevator released it
//   mq_queue             src/block     staged in a context FIFO (two or
//                                      more dispatch contexts only)
//   mq_issue             src/block     a context issued it to the device
//                                      command queue (more than one
//                                      command in flight)
//   dev_start/done       src/device    the device began/finished service
//   dev_flush            src/device    a cache-flush barrier retired
//   blk_complete         src/block     completion fanned out to waiters
//
// Every event carries the simulated time, the submitting pid, the cause
// pids (flattened from CauseSet so recording never perturbs the tag
// accountant), and the process-wide request_id threaded through
// BlockRequest/DeviceRequest — the span builder (span.h) joins on it.
#ifndef SRC_OBS_TRACE_EVENT_H_
#define SRC_OBS_TRACE_EVENT_H_

#include <cstdint>
#include <vector>

#include "src/sim/time.h"

namespace splitio {
namespace obs {

enum class EventType : uint8_t {
  kSyscallEnter,
  kSyscallExit,
  kPageDirty,
  kWbKick,
  kTxnJoin,
  kTxnCommit,
  kElvAdd,
  kElvMerge,
  kElvDispatch,
  kMqQueue,
  kMqIssue,
  kDevStart,
  kDevDone,
  kDevFlush,
  kBlkComplete,
};

inline const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kSyscallEnter: return "syscall_enter";
    case EventType::kSyscallExit: return "syscall_exit";
    case EventType::kPageDirty: return "page_dirty";
    case EventType::kWbKick: return "wb_kick";
    case EventType::kTxnJoin: return "txn_join";
    case EventType::kTxnCommit: return "txn_commit";
    case EventType::kElvAdd: return "elv_add";
    case EventType::kElvMerge: return "elv_merge";
    case EventType::kElvDispatch: return "elv_dispatch";
    case EventType::kMqQueue: return "mq_queue";
    case EventType::kMqIssue: return "mq_issue";
    case EventType::kDevStart: return "dev_start";
    case EventType::kDevDone: return "dev_done";
    case EventType::kDevFlush: return "dev_flush";
    case EventType::kBlkComplete: return "blk_complete";
  }
  return "?";
}

// Request direction / semantics, mirrored from BlockRequest flags.
inline constexpr uint8_t kFlagWrite = 1;
inline constexpr uint8_t kFlagSync = 2;
inline constexpr uint8_t kFlagJournal = 4;
inline constexpr uint8_t kFlagFlush = 8;

// Syscall identifiers for syscall_enter/exit (stored in `aux`).
enum class SyscallOp : uint64_t {
  kRead,
  kWrite,
  kFsync,
  kCreat,
  kMkdir,
  kUnlink,
  kRename,
};

struct TraceEvent {
  EventType type = EventType::kElvAdd;
  uint8_t flags = 0;
  // Index into the label registry (trace_sink.h): the bench scope active
  // when the event fired, usually the scheduler under test.
  uint16_t label = 0;
  // Submitting / acting pid (-1: none). For blk events this is the
  // request's submitter — which for buffered writes is the writeback or
  // journal proxy, exactly the information loss the paper is about; the
  // true origins are in `causes`.
  int32_t pid = -1;
  Nanos time = 0;            // stamped by EmitEvent (simulated time)
  uint64_t request_id = 0;   // 0: not tied to a block request
  int64_t ino = -1;
  uint64_t sector = 0;
  uint32_t bytes = 0;
  int32_t result = 0;        // errno-style, on *_done / complete events
  // Event-specific datum: syscall op (syscall_*), page index (page_dirty),
  // transaction id / LSN (txn_*), hardware context (mq_issue).
  uint64_t aux = 0;
  // Event-specific timestamp: enqueue time (blk_complete), earliest
  // dirtied_at of the pages behind a write (elv_add/merge).
  Nanos t_aux = 0;
  Nanos service = 0;         // modeled service time, on *_done / complete
  // Emitting object, for listeners that filter to one block layer or
  // device in a multi-stack bench (compared by address, never dereferenced).
  const void* source = nullptr;
  std::vector<int32_t> causes;
};

}  // namespace obs
}  // namespace splitio

#endif  // SRC_OBS_TRACE_EVENT_H_
