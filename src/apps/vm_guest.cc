#include "src/apps/vm_guest.h"

#include "src/sim/simulator.h"

namespace splitio {

VmGuest::VmGuest(StorageStack* host, Process* vm_process, const Config& config)
    : host_(host), vm_process_(vm_process), config_(config) {}

void VmGuest::CreateImage(const std::string& path) {
  image_ino_ = host_->fs().CreatePreallocated(path, config_.disk_image_bytes);
}

void VmGuest::Start() { Simulator::current().Spawn(GuestWritebackLoop()); }

Page& VmGuest::GuestPage(uint64_t idx) {
  bool inserted = false;
  Page& page = guest_pages_.FindOrInsert(idx, guest_pools_, &inserted);
  page.index = idx;
  return page;
}

Task<uint64_t> VmGuest::Read(uint64_t offset, uint64_t len) {
  uint64_t first = offset / kPageSize;
  uint64_t last = (offset + len - 1) / kPageSize;
  // Contiguous guest misses become one host read.
  uint64_t run_start = 0;
  uint64_t run_pages = 0;
  auto host_read = [&]() -> Task<void> {
    co_await host_->kernel().Read(*vm_process_, image_ino_,
                                  run_start * kPageSize, run_pages * kPageSize);
    host_reads_ += run_pages;
    for (uint64_t i = 0; i < run_pages; ++i) {
      GuestPage(run_start + i);
    }
  };
  for (uint64_t idx = first; idx <= last; ++idx) {
    if (guest_pages_.Find(idx) != nullptr) {
      ++hits_;
      co_await host_->cpu().Consume(config_.guest_page_cost);
      if (run_pages > 0) {
        co_await host_read();
        run_pages = 0;
      }
      continue;
    }
    if (run_pages == 0) {
      run_start = idx;
    }
    ++run_pages;
  }
  if (run_pages > 0) {
    co_await host_read();
  }
  co_return len;
}

Task<uint64_t> VmGuest::Write(uint64_t offset, uint64_t len) {
  uint64_t first = offset / kPageSize;
  uint64_t last = (offset + len - 1) / kPageSize;
  for (uint64_t idx = first; idx <= last; ++idx) {
    Page& page = GuestPage(idx);
    if (!page.dirty) {
      page.dirty = true;
      guest_pages_.TagDirty(guest_pages_.FindLeaf(idx), idx);
    }
    co_await host_->cpu().Consume(config_.guest_page_cost);
  }
  // Guest dirty-ratio throttling: flush through the host when the guest
  // buffer fills (this is where host-level throttling bites).
  uint64_t limit = static_cast<uint64_t>(
      config_.guest_dirty_ratio * static_cast<double>(config_.guest_ram) /
      kPageSize);
  while (guest_pages_.dirty_pages() > limit) {
    co_await FlushDirty(2048);
  }
  co_return len;
}

Task<void> VmGuest::FlushDirty(uint64_t max_pages) {
  // Merge contiguous dirty guest pages into large host writes.
  uint64_t run_start = 0;
  uint64_t run_pages = 0;
  uint64_t flushed = 0;
  auto host_write = [&]() -> Task<void> {
    co_await host_->kernel().Write(*vm_process_, image_ino_,
                                   run_start * kPageSize,
                                   run_pages * kPageSize);
  };
  while (guest_pages_.dirty_pages() > 0 && flushed < max_pages) {
    // The lowest dirty page, as the dirty set may have changed meanwhile.
    Page* page = nullptr;
    guest_pages_.ForEachDirty(1, [&](Page& p) { page = &p; });
    uint64_t idx = page->index;
    page->dirty = false;
    guest_pages_.UntagDirty(guest_pages_.FindLeaf(idx), idx);
    ++flushed;
    if (run_pages > 0 && idx == run_start + run_pages && run_pages < 256) {
      ++run_pages;
      continue;
    }
    if (run_pages > 0) {
      co_await host_write();
    }
    run_start = idx;
    run_pages = 1;
  }
  if (run_pages > 0) {
    co_await host_write();
  }
}

Task<void> VmGuest::Fsync() {
  while (guest_pages_.dirty_pages() > 0) {
    co_await FlushDirty(kNoPageLimit);
  }
  co_await host_->kernel().Fsync(*vm_process_, image_ino_);
}

Task<void> VmGuest::GuestWritebackLoop() {
  for (;;) {
    co_await Delay(config_.guest_writeback_interval);
    if (guest_pages_.dirty_pages() > 0) {
      co_await FlushDirty(8192);
    }
  }
}

}  // namespace splitio
