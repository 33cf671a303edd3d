// Crash-consistency monitor: observes one storage stack and records enough
// ground truth to validate any crash point.
//
// Three taps:
//  - a block-layer completion hook logs every successful write with its
//    logical origin (inode + page range for data, tid/LSN for journal
//    records) and the device completion sequence number;
//  - the jbd2 commit hook records, per transaction, which data events the
//    commit record depends on (ordered mode);
//  - the syscall fsync observer records each acknowledged fsync and the
//    data events it promised durable.
//
// `Snapshot` freezes a crash image: everything up to the device's last
// flush is durable; each still-volatile write survives wholly, torn (sector
// prefix), or not at all, drawn deterministically from the fault model's
// crash RNG stream. The checker (crash_checker.h) replays the journal
// against the image and asserts the ordered-mode invariants.
//
// Correlation: the device stamps each media write's completion sequence
// number into DeviceResult::write_seq and the block layer copies it to
// BlockRequest::device_seq, so the hook reads the request's own sequence
// number directly — valid at any command-queue depth and hardware-queue
// count. Merged children share the container's sequence number (they were
// one device write).
#ifndef SRC_FAULT_CRASH_MONITOR_H_
#define SRC_FAULT_CRASH_MONITOR_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/core/storage_stack.h"
#include "src/fault/fault_injector.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace splitio {

// One media write that completed successfully.
struct WriteEvent {
  uint64_t seq = 0;  // device completion order (shared by merged fragments)
  uint64_t sector = 0;
  uint32_t bytes = 0;
  int64_t ino = -1;  // -1: not a data write (journal, checkpoint, ...)
  uint64_t first_page = 0;
  bool is_journal = false;
  uint64_t journal_tid = 0;  // jbd2 tid or XFS LSN for journal records
};

// A journal commit record's data dependencies (jbd2 ordered mode): the data
// events that had completed for the transaction's ordered inodes when the
// commit record was written.
struct CommitPoint {
  uint64_t tid = 0;
  std::vector<size_t> dep_events;  // indices into CrashMonitor::log()
};

// An acknowledged fsync: data the application may now rely on.
struct FsyncAck {
  int64_t ino = -1;
  int result = 0;
  Nanos when = 0;
  std::vector<size_t> dep_events;  // this inode's data events at ack time
};

// The durable state at a simulated crash point.
struct CrashImage {
  Nanos when = 0;
  // Writes with seq <= durable_upto are fully on media.
  uint64_t durable_upto = 0;
  // Volatile writes that happened to survive intact.
  std::unordered_set<uint64_t> full_survivors;
  // Volatile multi-sector writes that survived torn: seq -> surviving
  // sector-prefix length (a proper prefix of the request).
  std::unordered_map<uint64_t, uint32_t> torn_sectors;
  // Monitor-log prefix visible at this crash point.
  size_t events_upto = 0;
  size_t commits_upto = 0;
  size_t acks_upto = 0;

  bool EventDurable(const WriteEvent& e) const {
    return e.seq <= durable_upto || full_survivors.count(e.seq) > 0;
  }
};

// The stack knobs crash exploration runs with (RunCrashSweep, the stress
// executor's crash mode): durability is earned through barriers against a
// volatile write cache, journals commit every second, and flushes carry a
// visible but modest cost so barrier traffic exercises the elevators.
// Barriers off is itself an ordering bug the checker should flag.
void ConfigureCrashMode(StackConfig* config, bool durability_barriers);

// `count` random crash times over the middle and tail of [0, horizon) (the
// first quarter is warm-up: files being created, first transactions
// forming), drawn from `seed`, sorted, duplicates dropped.
std::vector<Nanos> RandomCrashTimes(uint64_t seed, Nanos horizon, int count);

class CrashMonitor {
 public:
  // Installs the taps on `stack` (the commit hook on ext4 stacks only).
  // The monitor must outlive the simulation.
  explicit CrashMonitor(StorageStack& stack);

  // Adversarial crash points: snapshot into `out` the instant each journal
  // record completes — the record is on media but no post-record flush has
  // run yet, which is precisely when a missing pre-record barrier leaves a
  // commit without its data. Caps at `max_images` to bound checker work.
  void SampleOnJournalRecord(FaultInjector* injector,
                             std::vector<CrashImage>* out, size_t max_images);

  // Random crash points: snapshots into `out` at each of `times` (sorted,
  // absolute), from `injector`'s crash stream. Spawn it as a root task.
  Task<void> SampleAtTimes(FaultInjector* injector, std::vector<Nanos> times,
                           std::vector<CrashImage>* out);

  // Freezes a crash image at the current simulated time. `rng` should be
  // the fault model's dedicated crash stream (FaultInjector::crash_rng()).
  CrashImage Snapshot(Rng& rng, const FaultConfig& config) const;

  const std::vector<WriteEvent>& log() const { return log_; }
  const std::vector<CommitPoint>& commits() const { return commits_; }
  const std::vector<FsyncAck>& acks() const { return acks_; }

  // Indices (into log()) of `ino`'s data events, in completion order.
  const std::vector<size_t>* EventsOf(int64_t ino) const;

 private:
  void OnBlockComplete(const BlockRequest& req);
  void OnCommit(uint64_t tid, const std::vector<int64_t>& ordered);
  void OnFsync(int64_t ino, int result);

  BlockDevice* device_;
  FaultInjector* record_sampler_ = nullptr;
  std::vector<CrashImage>* record_images_ = nullptr;
  size_t record_images_max_ = 0;
  std::vector<WriteEvent> log_;
  std::vector<CommitPoint> commits_;
  std::vector<FsyncAck> acks_;
  std::unordered_map<int64_t, std::vector<size_t>> inode_events_;
};

}  // namespace splitio

#endif  // SRC_FAULT_CRASH_MONITOR_H_
