// Per-inode page index of the page cache: a radix tree, as Linux keeps a
// file's pages (the page-cache model of Do et al., PAPERS.md).
//
// Nodes have 64 slots and carry two bitmaps: `present` (slot in use) and
// `dirty` (a dirty page lives at or below the slot). A dirty tag is set on
// every node above a dirty page, so an ordered walk of an inode's dirty
// pages descends only into tagged subtrees; no separate dirty index exists.
// Pages and nodes come from free lists shared by all of a cache's trees, so
// a warm cache inserts and erases pages without touching the heap.
#ifndef SRC_CACHE_PAGE_TREE_H_
#define SRC_CACHE_PAGE_TREE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/causes.h"
#include "src/sim/time.h"

namespace splitio {

struct Page {
  int64_t ino = 0;
  uint64_t index = 0;  // 4 KB page index within the file
  bool dirty = false;
  // Writeback I/Os in flight for this page. A page re-dirtied and flushed
  // again while an earlier I/O is in flight has two; it stays under
  // writeback (counted, not evictable) until the last one completes.
  uint32_t writeback_ios = 0;
  CauseSet causes;
  Nanos dirtied_at = 0;
  // Preliminary cost (normalized bytes) charged by a memory-level cost model
  // when the page was dirtied; revised at the block level (§3.2).
  double prelim_cost = 0;
};

// Hands out default-constructed objects carved from 16 KB chunks and takes
// them back on a free list. Objects live until the pool is destroyed; the
// caller resets an object before returning it. Pages and nodes come from
// these rather than from the cache's std::pmr pool resource: with that
// pool, buffered-write's benchmark ran 17% fewer ops/s (median of 10
// paired runs, 4-vCPU VM, GCC 12).
template <typename T>
class FreeListPool {
 public:
  T* New() {
    if (free_.empty()) {
      constexpr size_t kPerChunk = std::max<size_t>(1, (16 << 10) / sizeof(T));
      chunks_.push_back(std::make_unique<T[]>(kPerChunk));
      T* chunk = chunks_.back().get();
      for (size_t i = kPerChunk; i-- > 0;) {
        free_.push_back(chunk + i);
      }
    }
    T* obj = free_.back();
    free_.pop_back();
    return obj;
  }
  void Delete(T* obj) { free_.push_back(obj); }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<T*> free_;
};

class PageTree {
 public:
  static constexpr int kBits = 6;
  static constexpr uint64_t kFanout = uint64_t{1} << kBits;
  // Levels needed to index all 64 bits.
  static constexpr int kMaxHeight = (64 + kBits - 1) / kBits;

  struct Node {
    uint64_t present = 0;
    uint64_t dirty = 0;
    union {
      Node* child[kFanout];  // interior nodes
      Page* page[kFanout];   // leaves
    };
  };
  struct Pools {
    FreeListPool<Node> nodes;
    FreeListPool<Page> pages;
  };

  Page* Find(uint64_t index) const;
  // The page at `index`; a fresh one from `pools` if it was absent.
  Page& FindOrInsert(uint64_t index, Pools& pools, bool* inserted);
  // Removes the page at `index` (which must be present), dropping its dirty
  // tag, and returns it and any emptied nodes to `pools`.
  void Erase(uint64_t index, Pools& pools);

  // Tag or untag the present page at `index` as dirty. TagDirty requires
  // the page to be untagged, UntagDirty requires it to be tagged.
  void TagDirty(uint64_t index);
  void UntagDirty(uint64_t index);
  uint64_t dirty_pages() const { return dirty_; }

  // Calls fn(index) for the first `max` dirty pages in ascending index
  // order. `fn` must not modify the tree.
  template <typename Fn>
  void ForEachDirty(uint64_t max, Fn&& fn) const {
    if (root_ != nullptr && max > 0) {
      WalkDirty(root_, height_ - 1, 0, max, fn);
    }
  }

 private:
  static uint64_t Slot(uint64_t index, int level) {
    return (index >> (kBits * level)) & (kFanout - 1);
  }
  static uint64_t Bit(uint64_t slot) { return uint64_t{1} << slot; }
  bool Covers(uint64_t index) const {
    return height_ >= kMaxHeight || (index >> (kBits * height_)) == 0;
  }
  // Fills path[level] with the nodes from the leaf (0) to the root holding
  // `index`, which must be present.
  void PathTo(uint64_t index, Node* path[kMaxHeight]) const;

  // Returns false once `left` reaches zero.
  template <typename Fn>
  static bool WalkDirty(const Node* node, int level, uint64_t base,
                        uint64_t& left, Fn& fn) {
    for (uint64_t mask = node->dirty; mask != 0; mask &= mask - 1) {
      uint64_t slot = static_cast<uint64_t>(std::countr_zero(mask));
      uint64_t index = base | (slot << (kBits * level));
      if (level == 0) {
        fn(index);
        if (--left == 0) {
          return false;
        }
      } else if (!WalkDirty(node->child[slot], level - 1, index, left, fn)) {
        return false;
      }
    }
    return true;
  }

  Node* root_ = nullptr;
  int height_ = 0;  // levels; the tree covers indices below 64^height_
  uint64_t dirty_ = 0;
};

}  // namespace splitio

#endif  // SRC_CACHE_PAGE_TREE_H_
