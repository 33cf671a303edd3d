#include "src/fs/filesystem.h"

#include <algorithm>
#include <cerrno>
#include <optional>
#include <span>
#include <vector>

#include "src/metrics/counters.h"
#include "src/obs/trace_sink.h"

namespace splitio {

FsBase::FsBase(PageCache* cache, BlockLayer* block, Process* writeback_task,
               const Layout& layout)
    : cache_(cache),
      block_(block),
      writeback_task_(writeback_task),
      layout_(layout),
      allocator_(layout.data_start, layout.alloc_chunk_pages) {}

int64_t FsBase::NewInode(const std::string& path, bool is_dir) {
  int64_t ino = next_ino_++;
  Inode& inode = inodes_[ino];
  inode.ino = ino;
  inode.path = path;
  inode.is_dir = is_dir;
  paths_[path] = ino;
  return ino;
}

Inode* FsBase::GetInode(int64_t ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

const Inode* FsBase::GetInode(int64_t ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

int64_t FsBase::Lookup(const std::string& path) const {
  auto it = paths_.find(path);
  return it == paths_.end() ? -1 : it->second;
}

uint64_t FsBase::FileSize(int64_t ino) const {
  const Inode* inode = GetInode(ino);
  return inode == nullptr ? 0 : inode->size;
}

Task<int64_t> FsBase::Create(Process& proc, const std::string& path) {
  int64_t existing = Lookup(path);
  if (existing >= 0) {
    co_return existing;
  }
  int64_t ino = NewInode(path, /*is_dir=*/false);
  // Directory entry + inode: two metadata blocks.
  JournalMetadata(proc, ino, 2);
  co_return ino;
}

Task<int64_t> FsBase::Mkdir(Process& proc, const std::string& path) {
  int64_t existing = Lookup(path);
  if (existing >= 0) {
    co_return existing;
  }
  int64_t ino = NewInode(path, /*is_dir=*/true);
  JournalMetadata(proc, ino, 2);
  co_return ino;
}

Task<void> FsBase::Unlink(Process& proc, int64_t ino) {
  Inode* inode = GetInode(ino);
  if (inode == nullptr || inode->deleted) {
    co_return;
  }
  // Dirty pages vanish before writeback: fire buffer-free hooks.
  cache_->FreeInode(ino);
  inode->deleted = true;
  paths_.erase(inode->path);
  JournalMetadata(proc, ino, 2);
}

Task<int> FsBase::Rename(Process& proc, int64_t ino,
                         const std::string& new_path) {
  Inode* inode = GetInode(ino);
  if (inode == nullptr || inode->deleted) {
    co_return -ENOENT;
  }
  auto it = paths_.find(new_path);
  if (it != paths_.end()) {
    if (it->second == ino) {
      co_return 0;  // already there
    }
    co_return -EEXIST;
  }
  paths_.erase(inode->path);
  inode->path = new_path;
  paths_[new_path] = ino;
  // Two directory entries (drop + add) plus the inode: like creat, two
  // metadata blocks.
  JournalMetadata(proc, ino, 2);
  co_return 0;
}

Task<int64_t> FsBase::Read(Process& proc, int64_t ino, uint64_t offset,
                           uint64_t len) {
  Inode* inode = GetInode(ino);
  if (inode == nullptr || len == 0) {
    co_return 0;
  }
  uint64_t first = offset / kPageSize;
  uint64_t last = (offset + len - 1) / kPageSize;

  // Readahead: a read continuing where the previous one ended is part of a
  // sequential stream — fetch a window beyond it (the pages land clean in
  // the cache and are free when the stream reaches them).
  if (layout_.readahead_pages > 0) {
    auto [it, inserted] = last_read_end_.try_emplace(ino, 0);
    bool sequential = !inserted && it->second == first;
    it->second = last + 1;
    if (sequential && inode->size > 0) {
      uint64_t eof_page = (inode->size - 1) / kPageSize;
      last = std::min<uint64_t>(last + layout_.readahead_pages, eof_page);
    }
  }

  // Walk pages, batching contiguous cache misses into large reads.
  uint64_t run_start = 0;
  uint64_t run_sector = 0;
  uint32_t run_pages = 0;
  int read_error = 0;
  auto submit_run = [&]() -> Task<void> {
    auto req = std::make_shared<BlockRequest>();
    req->sector = run_sector;
    req->bytes = run_pages * kPageSize;
    req->is_write = false;
    req->is_sync = true;
    req->submitter = &proc;
    req->causes = proc.Causes();
    req->ino = ino;
    req->first_page = run_start;
    co_await block_->SubmitAndWait(req);
    if (req->result != 0) {
      // Failed read: nothing lands in the cache; surface the error.
      read_error = req->result;
      co_return;
    }
    for (uint32_t i = 0; i < run_pages; ++i) {
      cache_->InsertClean(ino, run_start + i);
    }
  };

  for (uint64_t idx = first; idx <= last; ++idx) {
    bool hit = cache_->Find(ino, idx) != nullptr;
    uint64_t sector = 0;
    if (!hit) {
      std::optional<uint64_t> mapped = inode->extents.Lookup(idx);
      if (!mapped) {
        hit = true;  // hole: zero-fill, no device I/O
        cache_->InsertClean(ino, idx);
      } else {
        sector = *mapped;
      }
    }
    bool contiguous =
        run_pages > 0 &&
        sector == run_sector + run_pages * (kPageSize / kSectorSize) &&
        run_pages < layout_.max_request_pages;
    if (!hit && contiguous) {
      ++run_pages;
      continue;
    }
    if (run_pages > 0) {
      co_await submit_run();
      run_pages = 0;
    }
    if (!hit) {
      run_start = idx;
      run_sector = sector;
      run_pages = 1;
    }
  }
  if (run_pages > 0) {
    co_await submit_run();
  }
  if (read_error != 0) {
    co_return read_error;
  }
  co_return static_cast<int64_t>(len);
}

Task<int64_t> FsBase::Write(Process& proc, int64_t ino, uint64_t offset,
                            uint64_t len) {
  Inode* inode = GetInode(ino);
  if (inode == nullptr || len == 0) {
    co_return 0;
  }
  uint64_t first = offset / kPageSize;
  uint64_t last = (offset + len - 1) / kPageSize;
  cache_->MarkDirtyRange(proc, ino, first, last - first + 1);
  inode->size = std::max(inode->size, offset + len);
  // Delayed allocation: no metadata is journaled here; allocation (and the
  // resulting transaction entanglement) happens at writeback/fsync time.
  // Below the dirty limit the throttle would return at once; skipping it
  // saves its coroutine frame, and a task that finishes without suspending
  // schedules no event.
  if (cache_->over_dirty_limit()) {
    co_await cache_->ThrottleDirty();
  }
  co_return static_cast<int64_t>(len);
}

Task<uint64_t> FsBase::FlushInodeData(Process& submitter, int64_t ino,
                                      uint64_t max_pages, bool wait) {
  Inode* inode = GetInode(ino);
  if (inode == nullptr) {
    co_return 0;
  }
  std::vector<uint64_t> indices;
  cache_->CollectDirty(ino, max_pages, &indices);
  if (indices.empty()) {
    if (wait) {
      co_await WaitInflight(ino);
    }
    co_return 0;
  }

  // Delayed allocation: assign disk locations now and journal the metadata.
  int alloc_pages = 0;
  ExtentMap::Cursor mapped(inode->extents);
  for (uint64_t idx : indices) {
    if (!mapped.Sector(idx)) {
      inode->extents.Set(idx, allocator_.AllocatePage(*inode, idx));
      ++alloc_pages;
    }
  }
  if (alloc_pages > 0) {
    // Extent records: one metadata block per ~512 allocated pages, plus the
    // inode itself.
    JournalMetadata(submitter, ino, 1 + alloc_pages / 512);
    NoteOrderedData(submitter, ino);
  }

  // Merge contiguous (index, sector) runs into large write requests.
  uint64_t run_start = 0;
  uint64_t run_sector = 0;
  uint32_t run_pages = 0;
  CauseSet run_causes;
  double run_prelim = 0;
  // Earliest dirtied_at among the run's pages — the span builder's
  // queued-in-cache residency. Tracked only while tracing is active.
  Nanos run_first_dirty = 0;
  // Pages that join a run move to the front of `indices`, so the run's
  // pages are indices[run_begin, run_begin + run_pages). Contiguous sectors
  // need not hold contiguous pages (chunks allocated one after the other).
  size_t run_begin = 0;
  auto submit_run = [&]() {
    auto req = std::make_shared<BlockRequest>();
    req->sector = run_sector;
    req->bytes = run_pages * kPageSize;
    req->is_write = true;
    // A process flushing its own file (fsync path) has someone blocked on
    // the result; background writeback (proxy) does not. Schedulers may
    // prioritize accordingly.
    req->is_sync = !submitter.is_proxy();
    req->submitter = &submitter;
    req->ino = ino;
    req->first_page = run_start;
    req->cache_first_dirty = run_first_dirty;
    // The run's cause set is rebuilt (or cleared) after every submit, so
    // hand the allocation to the request instead of copying it.
    req->causes = std::move(run_causes);
    req->prelim_charged = run_prelim;
    BeginInflight(ino);
    block_->Submit(req);
    WatchWriteback(std::move(req), ino,
                   std::span(indices).subspan(run_begin, run_pages));
  };

  // Pages freed or flushed by another flusher since the walk are skipped.
  ExtentMap::Cursor sectors(inode->extents);
  cache_->StartWriteback(ino, indices, [&](const Page& page) {
    uint64_t idx = page.index;
    uint64_t sector = *sectors.Sector(idx);
    bool contiguous =
        run_pages > 0 &&
        sector == run_sector + run_pages * (kPageSize / kSectorSize) &&
        run_pages < layout_.max_request_pages;
    if (!contiguous && run_pages > 0) {
      submit_run();
      run_begin += run_pages;
      run_pages = 0;
      run_causes.Clear();
      run_prelim = 0;
      run_first_dirty = 0;
    }
    if (run_pages == 0) {
      run_start = idx;
      run_sector = sector;
    }
    if (obs::TracingActive() &&
        (run_first_dirty == 0 || page.dirtied_at < run_first_dirty)) {
      run_first_dirty = page.dirtied_at;
    }
    run_causes.Merge(page.causes);
    run_prelim += page.prelim_cost;
    indices[run_begin + run_pages] = idx;
    ++run_pages;
  });
  if (run_pages > 0) {
    submit_run();
  }
  if (wait) {
    co_await WaitInflight(ino);
  }
  co_return indices.size();
}

Task<int> FsBase::SubmitFlushBarrier(Process& proc) {
  auto req = std::make_shared<BlockRequest>();
  req->is_flush = true;
  // Flush barriers are ordering-critical and have a waiter: mark them write
  // + sync so elevators route them like urgent writes, never idling on them.
  req->is_write = true;
  req->is_sync = true;
  req->submitter = &proc;
  req->causes = proc.Causes();
  co_await block_->SubmitAndWait(req);
  co_return req->result;
}

int FsBase::TakeWritebackError(int64_t ino) {
  Inode* inode = GetInode(ino);
  if (inode == nullptr) {
    return 0;
  }
  int err = inode->wb_error;
  inode->wb_error = 0;
  return err;
}

void FsBase::BeginInflight(int64_t ino) {
  InflightState& state = inflight_[ino];
  ++state.count;
  ++state.submitted;
}

void FsBase::WatchWriteback(BlockRequestPtr req, int64_t ino,
                            std::span<const uint64_t> pages) {
  // A run of consecutive pages (the usual case) needs no list of its own.
  uint64_t first = pages.front();
  uint32_t npages = static_cast<uint32_t>(pages.size());
  std::vector<uint64_t> scattered;
  if (pages.back() - first + 1 != npages) {
    scattered.assign(pages.begin(), pages.end());
  }
  Simulator::current().Spawn(WatchWritebackCompletion(
      std::move(req), ino, first, npages, std::move(scattered)));
}

Task<void> FsBase::WatchWritebackCompletion(BlockRequestPtr req, int64_t ino,
                                            uint64_t first_page,
                                            uint32_t npages,
                                            std::vector<uint64_t> scattered) {
  co_await req->done.Wait();
  if (req->result != 0) {
    // Transient writeback failure: the pages' contents are dropped (Linux
    // likewise does not re-dirty on EIO) and the error is latched on the
    // inode for the next fsync to report.
    Inode* inode = GetInode(ino);
    if (inode != nullptr && inode->wb_error == 0) {
      inode->wb_error = req->result;
    }
    ++counters().wb_errors;
  }
  if (scattered.empty()) {
    cache_->EndWriteback(ino, first_page, npages);
  } else {
    cache_->EndWriteback(ino, scattered);
  }
  InflightState& state = inflight_[ino];
  --state.count;
  ++state.completed;
  state.done.NotifyAll();
}

Task<void> FsBase::WaitInflight(int64_t ino) {
  InflightState& state = inflight_[ino];
  while (state.count > 0) {
    co_await state.done.Wait();
  }
}

Task<void> FsBase::WaitInflightSnapshot(int64_t ino) {
  InflightState& state = inflight_[ino];
  uint64_t target = state.submitted;
  while (state.completed < target) {
    co_await state.done.Wait();
  }
}

CauseSet FsBase::ServedCauses(int64_t ino, uint64_t max_pages) {
  CauseSet served;
  cache_->ForEachDirtyPage(ino, max_pages, [&served](const Page& page) {
    served.Merge(page.causes);
  });
  return served;
}

Task<uint64_t> FsBase::WritebackInode(int64_t ino, uint64_t max_pages) {
  // The writeback daemon is an I/O proxy (§3.1): it inherits the causes of
  // the pages it writes back, so allocation metadata and block requests are
  // attributed to the original writers.
  if (cache_->dirty_pages_of(ino) == 0) {
    co_return 0;
  }
  CauseSet served = ServedCauses(ino, max_pages);
  writeback_task_->BeginProxy(served);
  uint64_t submitted =
      co_await FlushInodeData(*writeback_task_, ino, max_pages, false);
  writeback_task_->EndProxy();
  co_return submitted;
}

int64_t FsBase::CreatePreallocated(const std::string& path, uint64_t bytes) {
  int64_t ino = NewInode(path, /*is_dir=*/false);
  Inode& inode = inodes_[ino];
  inode.size = bytes;
  uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
  const uint64_t chunk = layout_.alloc_chunk_pages;
  for (uint64_t first = 0; first < pages; first += chunk) {
    inode.extents.Map(first, std::min(chunk, pages - first),
                      allocator_.AllocatePage(inode, first));
  }
  return ino;
}

void FsBase::StartWriteback() {
  cache_->StartWritebackDaemon([this](int64_t ino, uint64_t max_pages) {
    return WritebackInode(ino, max_pages);
  });
}

}  // namespace splitio
