#include "src/block/block_deadline.h"

#include "src/device/device.h"

#include "src/sim/simulator.h"

namespace splitio {

bool BlockDeadlineElevator::TryMerge(const BlockRequestPtr& req) {
  if (req->is_flush || req->is_journal) {
    return false;
  }
  Dir dir = DirOf(*req);
  // Find a queued request ending exactly where this one starts.
  auto it = sorted_[dir].lower_bound(req->sector);
  if (it == sorted_[dir].begin()) {
    return false;
  }
  --it;
  BlockRequestPtr& prev = it->second;
  if (prev->elv_dispatched || prev->is_flush || prev->is_journal ||
      prev->sector + prev->bytes / kSectorSize != req->sector ||
      prev->bytes + req->bytes > 1024 * 1024) {
    return false;
  }
  prev->bytes += req->bytes;
  prev->causes.Merge(req->causes);
  prev->prelim_charged += req->prelim_charged;
  prev->merged.push_back(req);
  return true;
}

void BlockDeadlineElevator::Add(BlockRequestPtr req) {
  Dir dir = DirOf(*req);
  Nanos expiry = dir == kRead ? config_.read_expiry : config_.write_expiry;
  if (req->submitter != nullptr) {
    Nanos override_expiry = dir == kRead ? req->submitter->read_deadline()
                                         : req->submitter->write_deadline();
    if (override_expiry != kNanosMax) {
      expiry = override_expiry;
    }
  }
  req->deadline = req->enqueue_time + expiry;
  Queue(std::move(req));
}

void BlockDeadlineElevator::Queue(BlockRequestPtr req) {
  Dir dir = DirOf(*req);
  if (req->deadline != kNanosMax) {
    fifo_[dir].push_back(req);
  }
  sorted_[dir].emplace(req->sector, std::move(req));
  ++count_[dir];
  ++pending_;
}

void BlockDeadlineElevator::SkipPast(const BlockRequest& req) {
  next_sector_ = req.sector + req.bytes / kSectorSize;
}

BlockRequestPtr BlockDeadlineElevator::Finish(Dir dir, BlockRequestPtr req) {
  req->elv_dispatched = true;
  --count_[dir];
  --pending_;
  SkipPast(*req);
  // Keep the FIFO's head the oldest undispatched request, so expiry checks
  // are O(1) and dispatched requests are not held alive by the queue.
  std::deque<BlockRequestPtr>& fifo = fifo_[dir];
  while (!fifo.empty() && fifo.front()->elv_dispatched) {
    fifo.pop_front();
  }
  return req;
}

BlockRequestPtr BlockDeadlineElevator::PopExpired(Dir dir) {
  std::deque<BlockRequestPtr>& fifo = fifo_[dir];
  if (fifo.empty() || fifo.front()->deadline > Simulator::current().Now()) {
    return nullptr;
  }
  dir_ = dir;
  batch_remaining_ = config_.fifo_batch - 1;
  BlockRequestPtr req = std::move(fifo.front());
  fifo.pop_front();
  // Remove from the sorted index (which still holds its copy).
  auto [lo, hi] = sorted_[dir].equal_range(req->sector);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == req) {
      sorted_[dir].erase(it);
      break;
    }
  }
  return Finish(dir, std::move(req));
}

BlockRequestPtr BlockDeadlineElevator::PopSorted(Dir dir, uint64_t from) {
  if (sorted_[dir].empty()) {
    return nullptr;
  }
  auto it = sorted_[dir].lower_bound(from);
  if (it == sorted_[dir].end()) {
    it = sorted_[dir].begin();  // wrap (one-way elevator)
  }
  // Move straight out of the sorted index (Finish trims the FIFO) — no
  // refcount round-trip and no second lookup.
  BlockRequestPtr req = std::move(it->second);
  sorted_[dir].erase(it);
  return Finish(dir, std::move(req));
}

BlockRequestPtr BlockDeadlineElevator::Next() {
  if (pending_ == 0) {
    return nullptr;
  }
  // Continue the current batch in sorted order.
  if (batch_remaining_ > 0 && HasPending(dir_)) {
    --batch_remaining_;
    return PopSorted(dir_, next_sector_);
  }
  // Choose a direction: reads preferred, writes rescued from starvation.
  Dir dir;
  if (HasPending(kRead) &&
      (!HasPending(kWrite) || starved_ < config_.writes_starved)) {
    dir = kRead;
    if (HasPending(kWrite)) {
      ++starved_;
    }
  } else {
    dir = kWrite;
    starved_ = 0;
  }
  if (BlockRequestPtr req = PopExpired(dir)) {
    return req;  // jump to the oldest request
  }
  dir_ = dir;
  batch_remaining_ = config_.fifo_batch - 1;
  return PopSorted(dir, next_sector_);
}

}  // namespace splitio
