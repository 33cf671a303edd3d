// Linux-style Block-Deadline elevator.
//
// Two FIFO queues (read/write) ordered by expiry and two sector-sorted
// queues. Requests are dispatched in sorted order in batches; when the FIFO
// head of the chosen direction has expired, the batch restarts from the
// oldest request. Reads are preferred over writes until writes have been
// starved `writes_starved` times.
//
// Like Linux (and unlike the split framework), deadlines attach to *block
// requests*: an fsync that depends on a journal commit that batches another
// process's data inherits that latency no matter what the deadline says —
// Figure 5's phenomenon.
//
// The stock scheduler has global read/write expiry settings; per-process
// overrides (Process::read_deadline / write_deadline) are supported to
// enable the paper's fair comparison (§5.2).
//
// Split-Deadline (src/sched/engines.h) dispatches through these queues
// too: it sets its own deadlines and queues with Queue(), serves expired
// reads with PopExpired(), and moves the elevator past the fsync-critical
// writes it dispatches from its own FIFO with SkipPast().
#ifndef SRC_BLOCK_BLOCK_DEADLINE_H_
#define SRC_BLOCK_BLOCK_DEADLINE_H_

#include <deque>
#include <map>
#include <string>

#include "src/block/elevator.h"
#include "src/sched/policy.h"  // BlockDeadlineConfig

namespace splitio {

class BlockDeadlineElevator : public Elevator {
 public:
  explicit BlockDeadlineElevator(
      const BlockDeadlineConfig& config = BlockDeadlineConfig())
      : config_(config) {}

  std::string name() const override { return "block-deadline"; }

  // Batch/starvation state assumes serial dispatch behind one hardware
  // queue (the legacy, pre-mq deadline elevator).
  bool mq_aware() const override { return false; }

  enum Dir { kRead = 0, kWrite = 1 };

  bool TryMerge(const BlockRequestPtr& req) override;
  // Sets the request's deadline from the expiry settings, then queues it.
  void Add(BlockRequestPtr req) override;
  BlockRequestPtr Next() override;
  bool Empty() const override { return pending_ == 0; }

  // Queues `req` under the deadline its caller set: in its direction's
  // sorted queue, and in its FIFO only if it has a deadline.
  void Queue(BlockRequestPtr req);
  // If the head of `dir`'s FIFO has expired, pops it and starts a batch in
  // `dir` there; otherwise returns nullptr.
  BlockRequestPtr PopExpired(Dir dir);
  // Continues sorted dispatch after `req`, dispatched from elsewhere.
  void SkipPast(const BlockRequest& req);
  // `dir`'s FIFO in arrival order. Its head is undispatched; later entries
  // may already have left through the sorted queue.
  const std::deque<BlockRequestPtr>& fifo(Dir dir) const { return fifo_[dir]; }

 private:
  static Dir DirOf(const BlockRequest& req) {
    return req.is_write ? kWrite : kRead;
  }

  // Removes and returns the first sorted request at or after `from`,
  // wrapping around (one-way elevator / C-SCAN).
  BlockRequestPtr PopSorted(Dir dir, uint64_t from);
  // Marks `req` dispatched, updates the counters/elevator position, and
  // pops dispatched requests off the FIFO's head.
  BlockRequestPtr Finish(Dir dir, BlockRequestPtr req);
  bool HasPending(Dir dir) const { return count_[dir] > 0; }

  BlockDeadlineConfig config_;
  std::deque<BlockRequestPtr> fifo_[2];
  std::multimap<uint64_t, BlockRequestPtr> sorted_[2];
  int count_[2] = {0, 0};
  int pending_ = 0;
  Dir dir_ = kRead;
  int batch_remaining_ = 0;
  int starved_ = 0;
  uint64_t next_sector_ = 0;
};

}  // namespace splitio

#endif  // SRC_BLOCK_BLOCK_DEADLINE_H_
