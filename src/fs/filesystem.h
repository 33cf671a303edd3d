// File-system layer: VFS-style interface, inodes, extent allocation, and a
// shared base class implementing the read/write/writeback data paths.
// Journaling behaviour (the part that differs between ext4 and XFS) is left
// to subclasses.
#ifndef SRC_FS_FILESYSTEM_H_
#define SRC_FS_FILESYSTEM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/block/block_layer.h"
#include "src/cache/page_cache.h"
#include "src/core/process.h"
#include "src/fs/extent_map.h"
#include "src/sim/task.h"

namespace splitio {

inline constexpr uint64_t kNoPageLimit = ~0ULL;

struct Inode {
  int64_t ino = 0;
  std::string path;
  bool is_dir = false;
  bool deleted = false;
  uint64_t size = 0;
  // Delayed allocation: page index -> disk sector, assigned at writeback.
  ExtentMap extents;
  // Allocation chunks already reserved for this file: chunk -> base sector.
  std::unordered_map<uint64_t, uint64_t> chunks;
  // Sticky writeback error (errseq-lite): set when background writeback of
  // this file's pages fails, reported and cleared by the next fsync —
  // mirroring Linux's "fsync reports the error once" semantics.
  int wb_error = 0;
};

// Assigns on-disk locations chunk-at-a-time: a file written back alone stays
// sequential; files written back together interleave at chunk granularity,
// which is how real delayed allocation trades locality for flexibility.
class ExtentAllocator {
 public:
  ExtentAllocator(uint64_t data_start_sector, uint64_t chunk_pages)
      : cursor_(data_start_sector), chunk_pages_(chunk_pages) {}

  // Returns the sector for `page_index` of `inode`, reserving a new chunk if
  // this is the first allocation in that chunk.
  uint64_t AllocatePage(Inode& inode, uint64_t page_index) {
    uint64_t chunk = page_index / chunk_pages_;
    auto [it, inserted] = inode.chunks.try_emplace(chunk, cursor_);
    if (inserted) {
      cursor_ += chunk_pages_ * (kPageSize / kSectorSize);
    }
    return it->second +
           (page_index % chunk_pages_) * (kPageSize / kSectorSize);
  }

  uint64_t cursor() const { return cursor_; }

 private:
  uint64_t cursor_;
  uint64_t chunk_pages_;
};

class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual std::string name() const = 0;

  // Namespace operations (metadata writes).
  virtual Task<int64_t> Create(Process& proc, const std::string& path) = 0;
  virtual Task<int64_t> Mkdir(Process& proc, const std::string& path) = 0;
  virtual Task<void> Unlink(Process& proc, int64_t ino) = 0;
  // Moves `ino` to `new_path`. Returns 0, -ENOENT (no such inode or it was
  // unlinked), or -EEXIST (another live inode holds `new_path`).
  virtual Task<int> Rename(Process& proc, int64_t ino,
                           const std::string& new_path) = 0;

  // Data operations. Read/Write return bytes moved, or a negative errno
  // (-EIO) when the I/O failed. Writes go to the page cache; reads are
  // served from cache or disk.
  virtual Task<int64_t> Read(Process& proc, int64_t ino, uint64_t offset,
                             uint64_t len) = 0;
  virtual Task<int64_t> Write(Process& proc, int64_t ino, uint64_t offset,
                              uint64_t len) = 0;

  // Durability: flush the file's data and metadata. Subject to the file
  // system's ordering mechanism (journal commit etc.). Returns 0 on
  // success or a negative errno — including a sticky error from earlier
  // background writeback of this file (consumed by this call).
  virtual Task<int> Fsync(Process& proc, int64_t ino) = 0;

  // Background writeback of one inode's dirty pages (called by the
  // writeback daemon or by a scheduler that owns writeback). Submits up to
  // `max_pages` and returns without waiting for the I/O. Returns pages
  // submitted.
  virtual Task<uint64_t> WritebackInode(int64_t ino, uint64_t max_pages) = 0;

  virtual int64_t Lookup(const std::string& path) const = 0;
  virtual uint64_t FileSize(int64_t ino) const = 0;

  // Waits until no writeback I/O is in flight for `ino`.
  virtual Task<void> WaitInflight(int64_t ino) = 0;

  // Waits only for the writeback I/O submitted *before* this call (by
  // completion count), not for later submissions — the jbd2 ordered-mode
  // semantics: a committer must not starve behind a flusher that keeps
  // pipelining new batches.
  virtual Task<void> WaitInflightSnapshot(int64_t ino) = 0;
};

// Shared implementation of the data path; journaling left to subclasses.
class FsBase : public FileSystem {
 public:
  // On-disk layout, all positions in 512-byte sectors.
  struct Layout {
    uint64_t metadata_start = 1ULL << 30 >> 9;     // inode tables at 1 GB
    uint64_t journal_start = 2ULL << 30 >> 9;      // journal / log at 2 GB
    uint64_t journal_sectors = 256ULL << 20 >> 9;  // 256 MB journal
    uint64_t data_start = 4ULL << 30 >> 9;         // data from 4 GB
    uint64_t alloc_chunk_pages = 2048;             // 8 MB allocation chunks
    uint32_t max_request_pages = 256;              // 1 MB merged requests
    // Pages to read ahead when a sequential read pattern is detected
    // (0 = readahead disabled).
    uint32_t readahead_pages = 0;
    // Issue device cache-flush barriers where durability requires them
    // (before/after journal commit records, at fsync return). Off by
    // default: with the device's volatile cache disabled every write is
    // durable on completion and barriers would only add no-op requests.
    bool durability_barriers = false;
  };

  FsBase(PageCache* cache, BlockLayer* block, Process* writeback_task,
         const Layout& layout);

  Task<int64_t> Create(Process& proc, const std::string& path) override;
  Task<int64_t> Mkdir(Process& proc, const std::string& path) override;
  Task<void> Unlink(Process& proc, int64_t ino) override;
  Task<int> Rename(Process& proc, int64_t ino,
                   const std::string& new_path) override;
  Task<int64_t> Read(Process& proc, int64_t ino, uint64_t offset,
                     uint64_t len) override;
  Task<int64_t> Write(Process& proc, int64_t ino, uint64_t offset,
                      uint64_t len) override;
  Task<uint64_t> WritebackInode(int64_t ino, uint64_t max_pages) override;
  int64_t Lookup(const std::string& path) const override;
  uint64_t FileSize(int64_t ino) const override;
  Task<void> WaitInflight(int64_t ino) override;
  Task<void> WaitInflightSnapshot(int64_t ino) override;

  // Wires the writeback daemon of the attached cache to this file system.
  void StartWriteback();

  // Test/benchmark helper: creates a file of `bytes` with all extents
  // allocated and clean (as if written and flushed long ago). No simulated
  // I/O is performed.
  int64_t CreatePreallocated(const std::string& path, uint64_t bytes);

  // Returns and clears the inode's sticky writeback error (fsync path).
  int TakeWritebackError(int64_t ino);

  PageCache& cache() { return *cache_; }
  BlockLayer& block() { return *block_; }
  Process& writeback_task() { return *writeback_task_; }

 protected:
  // --- Journaling integration points ---
  // A metadata update caused by `cause` touched `ino` (creation, size
  // change, allocation). `blocks` approximates journal payload.
  virtual void JournalMetadata(Process& cause, int64_t ino, int blocks) = 0;
  // Called when `proc` made `ino`'s data part of the running ordering unit
  // (ext4 ordered mode); XFS does not entangle data, so its override is a
  // no-op.
  virtual void NoteOrderedData(Process& proc, int64_t ino) = 0;

  Inode* GetInode(int64_t ino);
  const Inode* GetInode(int64_t ino) const;

  const Layout& layout() const { return layout_; }

  // Flushes up to `max_pages` dirty pages of `ino`: performs delayed
  // allocation (journaling the metadata with `submitter`'s causes), merges
  // contiguous pages into large block writes, and submits them. If `wait`,
  // blocks until all in-flight writeback for the inode completes.
  Task<uint64_t> FlushInodeData(Process& submitter, int64_t ino,
                                uint64_t max_pages, bool wait);

  // Submits a device cache-flush barrier on behalf of `proc` and waits for
  // it. Returns the barrier request's completion status.
  Task<int> SubmitFlushBarrier(Process& proc);

  int64_t NewInode(const std::string& path, bool is_dir);

  // Union of the causes of the first `max_pages` dirty pages of `ino`: the
  // processes a writeback proxy serves while it flushes them (§3.1).
  CauseSet ServedCauses(int64_t ino, uint64_t max_pages);

  // Registers a just-submitted writeback request for `ino` in the in-flight
  // accounting (paired with WatchWriteback).
  void BeginInflight(int64_t ino);
  // Spawns the completion watcher of writeback request `req`, which writes
  // `pages` (ascending indices; consecutive sectors need not hold
  // consecutive pages). The watcher waits for `req`, ends the pages'
  // writeback, and closes the in-flight entry opened by BeginInflight.
  void WatchWriteback(BlockRequestPtr req, int64_t ino,
                      std::span<const uint64_t> pages);

 private:
  // `scattered` lists the pages when they are not the `npages` consecutive
  // ones from `first_page`.
  Task<void> WatchWritebackCompletion(BlockRequestPtr req, int64_t ino,
                                      uint64_t first_page, uint32_t npages,
                                      std::vector<uint64_t> scattered);

  struct InflightState {
    int count = 0;
    uint64_t submitted = 0;
    uint64_t completed = 0;
    Event done;  // notified on every completion
  };

  PageCache* cache_;
  BlockLayer* block_;
  Process* writeback_task_;
  Layout layout_;
  ExtentAllocator allocator_;
  std::unordered_map<int64_t, Inode> inodes_;
  std::unordered_map<std::string, int64_t> paths_;
  std::unordered_map<int64_t, InflightState> inflight_;
  // Per-inode position after the last read (sequential-pattern detection).
  std::unordered_map<int64_t, uint64_t> last_read_end_;
  int64_t next_ino_ = 2;  // 1 = root
};

}  // namespace splitio

#endif  // SRC_FS_FILESYSTEM_H_
