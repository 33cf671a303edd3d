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

BlockLayer::BlockLayer(BlockDevice* device, Elevator* elevator,
                       const BlockMqConfig& mq)
    : device_(device),
      elevator_(elevator),
      hw_queues_(static_cast<size_t>(
          mq.enabled && elevator->mq_aware() ? std::max(1, mq.nr_hw_queues)
                                             : 1)),
      queue_depth_(mq.enabled ? std::max(1, mq.queue_depth) : 1),
      serial_(hw_queues_.size() == 1 && queue_depth_ == 1) {}

void BlockLayer::Start() {
  device_->set_queue_depth(
      static_cast<uint32_t>(nr_hw_queues() * queue_depth_));
  for (int i = 0; i < nr_hw_queues(); ++i) {
    Simulator::current().Spawn(ContextLoop(i));
  }
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
  HwQueue* q = &hw_queues_[0];
  if (hw_queues_.size() == 1) {
    if (!MergeOrAdd(std::move(req))) {
      return;  // merged: rides on the container request's completion
    }
  } else {
    int32_t pid = req->submitter != nullptr ? req->submitter->pid() : -1;
    if (pid >= 0) {
      q = &hw_queues_[static_cast<size_t>(pid) % hw_queues_.size()];
    }
    if (obs::TracingActive()) {
      obs::EmitEvent(RequestEvent(obs::EventType::kMqQueue, *req));
    }
    q->staged.push_back(std::move(req));
    ++sw_staged_;
  }
  NoteQueued();
  ++counters().mq_kicks;
  q->kick.NotifyAll();
}

Task<void> BlockLayer::SubmitAndWait(BlockRequestPtr req) {
  Submit(req);
  co_await req->done.Wait();
}

bool BlockLayer::MergeOrAdd(BlockRequestPtr req) {
  if (elevator_->TryMerge(req)) {
    ++total_merged_;
    ++counters().block_merged;
    if (obs::TracingActive()) {
      obs::EmitEvent(RequestEvent(obs::EventType::kElvMerge, *req));
    }
    return false;
  }
  if (obs::TracingActive()) {
    obs::EmitEvent(RequestEvent(obs::EventType::kElvAdd, *req));
  }
  elevator_->Add(std::move(req));
  ++elv_queued_;
  return true;
}

void BlockLayer::DrainStaged(HwQueue& q) {
  // Indexed, not iterated: a request staged while draining lands at the
  // tail and is drained in this pass too.
  for (size_t i = 0; i < q.staged.size(); ++i) {
    --sw_staged_;
    MergeOrAdd(std::move(q.staged[i]));
  }
  q.staged.clear();
}

int BlockLayer::Fault(BlockRequest& req) {
  int fault = fault_hook_ ? fault_hook_(req) : 0;
  if (fault != 0) {
    req.service_time = 0;
    req.result = fault;
  }
  return fault;
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

void BlockLayer::KickIdleSiblings(int hw) {
  for (int i = 0; i < nr_hw_queues(); ++i) {
    if (i == hw) {
      continue;
    }
    HwQueue& sibling = hw_queues_[static_cast<size_t>(i)];
    if (sibling.inflight < queue_depth_) {
      ++counters().mq_kicks;
      sibling.kick.NotifyAll();
    }
  }
}

Task<void> BlockLayer::ContextLoop(int hw) {
  HwQueue& q = hw_queues_[static_cast<size_t>(hw)];
  for (;;) {
    DrainStaged(q);
    if (flush_draining_) {
      // A barrier is in progress on another context; hold dispatch until
      // it completes so the flush point stays well-defined.
      co_await flush_done_.Wait();
      continue;
    }
    if (q.inflight >= queue_depth_) {
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
    if (!serial_) {
      if (req->is_flush) {
        co_await FlushBarrier(std::move(req));
      } else {
        ++q.inflight;
        ++total_inflight_;
        Simulator::current().Spawn(DispatchQueued(hw, std::move(req)));
      }
      continue;
    }
    // One command at a time: service it inline, with no frame of its own.
    if (req->is_flush) {
      req->service_time = co_await device_->Flush();
      req->result = 0;
    } else if (Fault(*req) == 0) {
      DeviceRequest dreq{req->sector, req->bytes, req->is_write,
                         req->request_id};
      ++total_inflight_;
      DeviceResult res = co_await device_->Execute(dreq);
      --total_inflight_;
      req->service_time = res.service;
      req->result = res.error;
      req->device_seq = res.write_seq;
    }
    FinishRequest(req);
  }
}

Task<void> BlockLayer::DispatchQueued(int hw, BlockRequestPtr req) {
  if (obs::TracingActive()) {
    obs::TraceEvent e = RequestEvent(obs::EventType::kMqIssue, *req);
    e.aux = static_cast<uint64_t>(hw);
    obs::EmitEvent(std::move(e));
  }
  if (Fault(*req) == 0) {
    DeviceRequest dreq{req->sector, req->bytes, req->is_write,
                       req->request_id};
    DeviceResult res = co_await device_->ExecuteQueued(dreq);
    req->service_time = res.service;
    req->result = res.error;
    req->device_seq = res.write_seq;
  }
  HwQueue& q = hw_queues_[static_cast<size_t>(hw)];
  --q.inflight;
  --total_inflight_;
  FinishRequest(req);
  q.kick.NotifyAll();
  if (total_inflight_ == 0) {
    drain_event_.NotifyAll();
  }
}

Task<void> BlockLayer::FlushBarrier(BlockRequestPtr req) {
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
  KickDispatcher();
}

}  // namespace splitio
