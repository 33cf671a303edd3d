// VmGuest — QEMU-style virtual machine I/O model (§7.2).
//
// The guest runs a vanilla kernel, so it has its own page cache *above* the
// host's scheduling layer. All guest disk I/O funnels through one host
// process (the VM), so host-side throttling applies to the whole VM.
//
// The structural point Figure 20 makes: with a caching layer above the
// throttle, memory-bound guest workloads never reach the host scheduler,
// which repairs SCS's worst over-charging — while SCS's random-I/O
// under-charging (isolation failure) remains.
#ifndef SRC_APPS_VM_GUEST_H_
#define SRC_APPS_VM_GUEST_H_

#include <cstdint>

#include "src/cache/page_tree.h"
#include "src/core/storage_stack.h"
#include "src/sim/random.h"

namespace splitio {

class VmGuest {
 public:
  struct Config {
    uint64_t guest_ram = 1ULL << 30;
    double guest_dirty_ratio = 0.20;
    Nanos guest_writeback_interval = Sec(5);
    uint64_t disk_image_bytes = 10ULL << 30;
    Nanos guest_page_cost = Usec(1);  // guest-side copy cost per page hit
  };

  // `vm_process` is the host process all guest I/O is attributed to.
  VmGuest(StorageStack* host, Process* vm_process, const Config& config);

  // Creates the backing disk image on the host FS (preallocated).
  void CreateImage(const std::string& path);

  // Guest-level file operations (offsets are within the disk image).
  Task<uint64_t> Read(uint64_t offset, uint64_t len);
  Task<uint64_t> Write(uint64_t offset, uint64_t len);
  Task<void> Fsync();

  // Spawns the guest's writeback daemon.
  void Start();

  // Marks a region as already resident in the guest cache (a long-running
  // VM's warm working set); no simulated I/O is performed.
  void PrefillGuestCache(uint64_t offset, uint64_t len) {
    for (uint64_t idx = offset / kPageSize;
         idx <= (offset + len - 1) / kPageSize; ++idx) {
      GuestPage(idx);
    }
  }

  uint64_t guest_cache_hits() const { return hits_; }
  uint64_t host_reads() const { return host_reads_; }

 private:
  // The guest page at `idx`, inserted clean if it was not resident.
  Page& GuestPage(uint64_t idx);
  Task<void> GuestWritebackLoop();
  Task<void> FlushDirty(uint64_t max_pages);

  StorageStack* host_;
  Process* vm_process_;
  Config config_;
  int64_t image_ino_ = -1;
  // Guest page cache: resident pages are present in the tree, dirty pages
  // are tagged. Clean pages are never evicted.
  PageTree::Pools guest_pools_;
  PageTree guest_pages_;
  uint64_t hits_ = 0;
  uint64_t host_reads_ = 0;
};

}  // namespace splitio

#endif  // SRC_APPS_VM_GUEST_H_
