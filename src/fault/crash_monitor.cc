#include "src/fault/crash_monitor.h"

#include <algorithm>

#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {

void ConfigureCrashMode(StackConfig* config, bool durability_barriers) {
  config->volatile_write_cache = true;
  config->layout.durability_barriers = durability_barriers;
  config->journal.commit_interval = Sec(1);
  config->hdd.flush_latency = Usec(500);
  config->ssd.flush_latency = Usec(100);
}

std::vector<Nanos> RandomCrashTimes(uint64_t seed, Nanos horizon, int count) {
  std::vector<Nanos> times;
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  Nanos lo = horizon / 4;
  for (int i = 0; i < count; ++i) {
    times.push_back(lo + static_cast<Nanos>(rng.Below(
                             static_cast<uint64_t>(horizon - lo))));
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

CrashMonitor::CrashMonitor(StorageStack& stack) : device_(&stack.device()) {
  stack.block().add_completion_hook(
      [this](const BlockRequest& req) { OnBlockComplete(req); });
  if (Ext4Sim* ext4 = stack.ext4()) {
    ext4->journal().set_commit_hook(
        [this](uint64_t tid, const std::vector<int64_t>& ordered) {
          OnCommit(tid, ordered);
        });
  }
  stack.kernel().set_fsync_observer(
      [this](Process&, int64_t ino, int result) { OnFsync(ino, result); });
}

void CrashMonitor::OnBlockComplete(const BlockRequest& req) {
  if (!req.is_write || req.is_flush || req.result != 0) {
    // Reads and barriers leave no image trace; failed writes never reached
    // media (the device assigns no sequence number to them).
    return;
  }
  WriteEvent event;
  event.seq = req.device_seq;
  event.sector = req.sector;
  event.bytes = req.bytes;
  event.ino = req.ino;
  event.first_page = req.first_page;
  event.is_journal = req.is_journal;
  event.journal_tid = req.journal_tid;
  size_t idx = log_.size();
  log_.push_back(event);
  if (req.ino >= 0 && !req.is_journal) {
    inode_events_[req.ino].push_back(idx);
  }
  if (event.is_journal && event.journal_tid != 0 && record_sampler_ != nullptr &&
      record_images_->size() < record_images_max_) {
    record_images_->push_back(
        Snapshot(record_sampler_->crash_rng(), record_sampler_->config()));
  }
}

void CrashMonitor::SampleOnJournalRecord(FaultInjector* injector,
                                         std::vector<CrashImage>* out,
                                         size_t max_images) {
  record_sampler_ = injector;
  record_images_ = out;
  record_images_max_ = max_images;
}

Task<void> CrashMonitor::SampleAtTimes(FaultInjector* injector,
                                       std::vector<Nanos> times,
                                       std::vector<CrashImage>* out) {
  Nanos last = 0;
  for (Nanos when : times) {
    co_await Delay(when - last);
    last = when;
    out->push_back(Snapshot(injector->crash_rng(), injector->config()));
  }
}

void CrashMonitor::OnCommit(uint64_t tid,
                            const std::vector<int64_t>& ordered) {
  CommitPoint point;
  point.tid = tid;
  for (int64_t ino : ordered) {
    auto it = inode_events_.find(ino);
    if (it == inode_events_.end()) {
      continue;
    }
    point.dep_events.insert(point.dep_events.end(), it->second.begin(),
                            it->second.end());
  }
  commits_.push_back(std::move(point));
}

void CrashMonitor::OnFsync(int64_t ino, int result) {
  FsyncAck ack;
  ack.ino = ino;
  ack.result = result;
  ack.when = Simulator::current().Now();
  auto it = inode_events_.find(ino);
  if (it != inode_events_.end()) {
    ack.dep_events = it->second;
  }
  acks_.push_back(std::move(ack));
}

const std::vector<size_t>* CrashMonitor::EventsOf(int64_t ino) const {
  auto it = inode_events_.find(ino);
  return it == inode_events_.end() ? nullptr : &it->second;
}

CrashImage CrashMonitor::Snapshot(Rng& rng, const FaultConfig& config) const {
  CrashImage img;
  img.when = Simulator::current().Now();
  img.durable_upto = device_->durable_seq();
  for (const BlockDevice::WriteRecord& w : device_->volatile_writes()) {
    if (rng.NextDouble() >= config.volatile_survival_rate) {
      continue;  // lost in the cache
    }
    uint32_t sectors = w.bytes / kSectorSize;
    if (sectors > 1 && rng.NextDouble() < config.torn_write_rate) {
      // Torn: only a proper sector prefix reached media.
      img.torn_sectors[w.seq] = 1 + static_cast<uint32_t>(
                                        rng.Below(sectors - 1));
    } else {
      img.full_survivors.insert(w.seq);
    }
  }
  img.events_upto = log_.size();
  img.commits_upto = commits_.size();
  img.acks_upto = acks_.size();
  return img;
}

}  // namespace splitio
