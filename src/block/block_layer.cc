#include "src/block/block_layer.h"

#include <algorithm>
#include <utility>

#include "src/metrics/counters.h"
#include "src/obs/trace_sink.h"

namespace splitio {

namespace {

// Builds a trace event carrying the request's identity. Only called under
// obs::TracingActive().
obs::TraceEvent RequestEvent(obs::EventType type, const BlockRequest& req) {
  obs::TraceEvent e;
  e.type = type;
  e.request_id = req.request_id;
  e.pid = req.submitter != nullptr ? req.submitter->pid() : -1;
  e.ino = req.ino;
  e.sector = req.sector;
  e.bytes = req.bytes;
  if (req.is_write) {
    e.flags |= obs::kFlagWrite;
  }
  if (req.is_sync) {
    e.flags |= obs::kFlagSync;
  }
  if (req.is_journal) {
    e.flags |= obs::kFlagJournal;
  }
  if (req.is_flush) {
    e.flags |= obs::kFlagFlush;
  }
  e.aux = req.journal_tid;
  e.t_aux = req.cache_first_dirty;
  std::span<const int32_t> pids = req.causes.pids();
  e.causes.assign(pids.begin(), pids.end());
  return e;
}

}  // namespace

void BlockLayer::Start() {
  if (!mq_.enabled) {
    Simulator::current().Spawn(DispatchLoop());
    return;
  }
  effective_hw_queues_ =
      elevator_->mq_aware() ? std::max(1, mq_.nr_hw_queues) : 1;
  mq_.queue_depth = std::max(1, mq_.queue_depth);
  // One context at depth 1 cannot overlap commands, so dispatch runs inline
  // (await, don't spawn) and services through the serial device path. This
  // keeps the completion->Next() step atomic exactly like the legacy loop —
  // the same-timestamp interleaving, and therefore the schedule, is
  // identical (the depth-1 equivalence tests pin this down).
  mq_serial_ = effective_hw_queues_ == 1 && mq_.queue_depth == 1;
  device_->set_queue_depth(
      static_cast<uint32_t>(effective_hw_queues_ * mq_.queue_depth));
  for (int i = 0; i < effective_hw_queues_; ++i) {
    hw_queues_.push_back(std::make_unique<HwQueue>());
  }
  for (int i = 0; i < effective_hw_queues_; ++i) {
    Simulator::current().Spawn(MqDispatchLoop(i));
  }
}

int BlockLayer::MapSubmitterToHw(int32_t pid) const {
  if (pid < 0 || effective_hw_queues_ <= 1) {
    return 0;
  }
  return static_cast<int>(pid % effective_hw_queues_);
}

void BlockLayer::Submit(BlockRequestPtr req) {
  req->enqueue_time = Simulator::current().Now();
  req->request_id = obs::AllocRequestId();
  if (req->submitter != nullptr) {
    int p = req->submitter->priority();
    if (p >= 0 && p < 8) {
      ++submitted_by_priority_[static_cast<size_t>(p)];
    }
  }
  ++total_submitted_;
  ++counters().block_submitted;
  if (!mq_.enabled) {
    if (elevator_->TryMerge(req)) {
      ++total_merged_;
      ++counters().block_merged;
      if (obs::TracingActive()) {
        obs::EmitEvent(RequestEvent(obs::EventType::kElvMerge, *req));
      }
      return;  // rides on the container request's completion
    }
    if (obs::TracingActive()) {
      obs::EmitEvent(RequestEvent(obs::EventType::kElvAdd, *req));
    }
    elevator_->Add(std::move(req));
    ++elv_queued_;
    NoteQueued();
    submit_event_.NotifyAll();
    return;
  }
  // mq path: stage in the submitter's software queue; the mapped hardware
  // context merges and inserts into the elevator when it drains. Merging at
  // drain time sees the same elevator state as merging at submit time
  // (everything that arrived earlier was drained earlier), so behaviour at
  // depth 1 matches the legacy path.
  int32_t pid = req->submitter != nullptr ? req->submitter->pid() : -1;
  auto [it, inserted] = sw_queues_.try_emplace(pid);
  if (inserted) {
    it->second.hw_queue = MapSubmitterToHw(pid);
  }
  ++it->second.submitted;
  int hw = it->second.hw_queue;
  if (obs::TracingActive()) {
    obs::EmitEvent(RequestEvent(obs::EventType::kMqQueue, *req));
  }
  it->second.fifo.emplace_back(submit_seq_++, std::move(req));
  ++sw_staged_;
  NoteQueued();
  ++counters().mq_kicks;
  hw_queues_[static_cast<size_t>(hw)]->kick.NotifyAll();
}

Task<void> BlockLayer::SubmitAndWait(BlockRequestPtr req) {
  Submit(req);
  co_await req->done.Wait();
}

void BlockLayer::FinishRequest(const BlockRequestPtr& req) {
  ++finish_calls_;
  if (drop_completion_interval_ > 0 &&
      finish_calls_ % drop_completion_interval_ == 0) {
    return;  // negative control: the completion interrupt is lost
  }
  ++total_completed_;
  ++counters().block_completed;
  elevator_->OnComplete(*req);
  if (obs::TracingActive()) {
    obs::TraceEvent e = RequestEvent(obs::EventType::kBlkComplete, *req);
    e.t_aux = req->enqueue_time;
    e.service = req->service_time;
    e.result = req->result;
    e.source = this;
    obs::EmitEvent(std::move(e));
  }
  for (const CompletionHook& hook : completion_hooks_) {
    hook(*req);
  }
  req->done.Set();
  for (const BlockRequestPtr& child : req->merged) {
    child->service_time = req->service_time;
    child->result = req->result;
    child->device_seq = req->device_seq;
    if (obs::TracingActive()) {
      obs::TraceEvent e = RequestEvent(obs::EventType::kBlkComplete, *child);
      e.t_aux = child->enqueue_time;
      e.service = child->service_time;
      e.result = child->result;
      e.source = this;
      obs::EmitEvent(std::move(e));
    }
    for (const CompletionHook& hook : completion_hooks_) {
      hook(*child);
    }
    child->done.Set();
  }
  req->merged.clear();
}

Task<void> BlockLayer::DispatchLoop() {
  for (;;) {
    BlockRequestPtr req = elevator_->Next();
    if (req == nullptr) {
      Nanos idle = elevator_->IdleHint();
      if (idle > 0) {
        bool notified = co_await submit_event_.WaitWithTimeout(idle);
        if (!notified) {
          elevator_->OnIdleExpired();
        }
      } else {
        co_await submit_event_.Wait();
      }
      continue;
    }
    --elv_queued_;
    if (obs::TracingActive()) {
      obs::EmitEvent(RequestEvent(obs::EventType::kElvDispatch, *req));
    }
    if (req->is_flush) {
      req->service_time = co_await device_->Flush();
      req->result = 0;
    } else {
      int fault = fault_hook_ ? fault_hook_(*req) : 0;
      if (fault != 0) {
        req->service_time = 0;
        req->result = fault;
      } else {
        DeviceRequest dreq{req->sector, req->bytes, req->is_write,
                           req->request_id};
        ++total_inflight_;  // keep inflight() meaningful on the legacy path
        DeviceResult res = co_await device_->Execute(dreq);
        --total_inflight_;
        req->service_time = res.service;
        req->result = res.error;
        req->device_seq = res.write_seq;
      }
    }
    FinishRequest(req);
  }
}

void BlockLayer::DrainSwQueues(int hw) {
  // Pull this context's staged requests in global arrival order: repeatedly
  // take the lowest submission sequence number among the mapped queues.
  // O(#submitters) per request — submitter counts are small (tens).
  for (;;) {
    SwQueue* best = nullptr;
    uint64_t best_seq = 0;
    for (auto& [pid, sq] : sw_queues_) {
      (void)pid;
      if (sq.hw_queue != hw || sq.fifo.empty()) {
        continue;
      }
      if (best == nullptr || sq.fifo.front().first < best_seq) {
        best_seq = sq.fifo.front().first;
        best = &sq;
      }
    }
    if (best == nullptr) {
      return;
    }
    BlockRequestPtr req = std::move(best->fifo.front().second);
    best->fifo.pop_front();
    --sw_staged_;
    if (elevator_->TryMerge(req)) {
      ++total_merged_;
      ++counters().block_merged;
      if (obs::TracingActive()) {
        obs::EmitEvent(RequestEvent(obs::EventType::kElvMerge, *req));
      }
      continue;
    }
    if (obs::TracingActive()) {
      obs::EmitEvent(RequestEvent(obs::EventType::kElvAdd, *req));
    }
    elevator_->Add(std::move(req));
    ++elv_queued_;
  }
}

void BlockLayer::KickIdleSiblings(int hw) {
  for (int i = 0; i < effective_hw_queues_; ++i) {
    if (i == hw) {
      continue;
    }
    HwQueue& sibling = *hw_queues_[static_cast<size_t>(i)];
    if (sibling.inflight < mq_.queue_depth) {
      ++counters().mq_kicks;
      sibling.kick.NotifyAll();
    }
  }
}

Task<void> BlockLayer::MqDispatchLoop(int hw) {
  HwQueue& q = *hw_queues_[static_cast<size_t>(hw)];
  for (;;) {
    DrainSwQueues(hw);
    if (flush_draining_) {
      // A barrier is in progress on another context; hold dispatch until
      // it completes so the flush point stays well-defined.
      co_await flush_done_.Wait();
      continue;
    }
    if (q.inflight >= mq_.queue_depth) {
      // Saturated: hand remaining elevator work to idle siblings.
      if (!elevator_->Empty()) {
        KickIdleSiblings(hw);
      }
      co_await q.kick.Wait();
      continue;
    }
    BlockRequestPtr req = elevator_->Next();
    if (req == nullptr) {
      // Anticipatory idling only makes sense with a quiet device; with
      // commands in flight, their completions will wake us anyway.
      Nanos idle = total_inflight_ == 0 ? elevator_->IdleHint() : 0;
      if (idle > 0) {
        bool notified = co_await q.kick.WaitWithTimeout(idle);
        if (!notified) {
          elevator_->OnIdleExpired();
        }
      } else {
        co_await q.kick.Wait();
      }
      continue;
    }
    --elv_queued_;
    if (obs::TracingActive()) {
      obs::EmitEvent(RequestEvent(obs::EventType::kElvDispatch, *req));
    }
    if (req->is_flush) {
      co_await MqFlushBarrier(std::move(req));
      continue;
    }
    ++q.inflight;
    ++total_inflight_;
    if (mq_serial_) {
      co_await MqDispatchOne(hw, std::move(req));
    } else {
      Simulator::current().Spawn(MqDispatchOne(hw, std::move(req)));
    }
  }
}

Task<void> BlockLayer::MqDispatchOne(int hw, BlockRequestPtr req) {
  if (obs::TracingActive()) {
    obs::TraceEvent e = RequestEvent(obs::EventType::kMqIssue, *req);
    e.aux = static_cast<uint64_t>(hw);
    obs::EmitEvent(std::move(e));
  }
  int fault = fault_hook_ ? fault_hook_(*req) : 0;
  if (fault != 0) {
    req->service_time = 0;
    req->result = fault;
  } else {
    DeviceRequest dreq{req->sector, req->bytes, req->is_write,
                       req->request_id};
    DeviceResult res = mq_serial_ ? co_await device_->Execute(dreq)
                                  : co_await device_->ExecuteQueued(dreq);
    req->service_time = res.service;
    req->result = res.error;
    req->device_seq = res.write_seq;
  }
  HwQueue& q = *hw_queues_[static_cast<size_t>(hw)];
  --q.inflight;
  --total_inflight_;
  FinishRequest(req);
  q.kick.NotifyAll();
  if (total_inflight_ == 0) {
    drain_event_.NotifyAll();
  }
}

Task<void> BlockLayer::MqFlushBarrier(BlockRequestPtr req) {
  // Only one barrier can run at a time: every other context blocks on
  // flush_done_ before reaching Next(), so a second flush request stays in
  // the elevator until this one completes.
  flush_draining_ = true;
  while (total_inflight_ > 0) {
    co_await drain_event_.Wait();
  }
  req->service_time = co_await device_->Flush();
  req->result = 0;
  flush_draining_ = false;
  FinishRequest(req);
  flush_done_.NotifyAll();
  for (auto& hw : hw_queues_) {
    hw->kick.NotifyAll();
  }
}

}  // namespace splitio
