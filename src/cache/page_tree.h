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
    // Nodes freed so far by the trees sharing these pools. A LeafCursor
    // that saw another count looks its leaf up again.
    uint64_t node_frees = 0;
  };

  Page* Find(uint64_t index) const { return PageIn(FindLeaf(index), index); }
  // The page at `index`; a fresh one from `pools` if it was absent.
  Page& FindOrInsert(uint64_t index, Pools& pools, bool* inserted) {
    return InsertIn(FindOrInsertLeaf(index, pools), index, pools, inserted);
  }

  // Leaves are the level-0 nodes: each holds the pages of the 64
  // consecutive indices from a multiple of 64. Range walks resolve a leaf
  // once and then work on its slots.
  static uint64_t LeafSlot(uint64_t index) { return index & (kFanout - 1); }
  // The leaf that would hold `index`, or nullptr if there is none.
  Node* FindLeaf(uint64_t index) const;
  // The leaf that holds `index`, created (with the nodes above it) if
  // absent.
  Node* FindOrInsertLeaf(uint64_t index, Pools& pools);
  // The page at `index` in `leaf` (which may be null), or nullptr.
  static Page* PageIn(const Node* leaf, uint64_t index) {
    if (leaf == nullptr) {
      return nullptr;
    }
    uint64_t slot = LeafSlot(index);
    return (leaf->present & Bit(slot)) != 0 ? leaf->page[slot] : nullptr;
  }
  // The page at `index` in `leaf`; a fresh one from `pools` if absent.
  static Page& InsertIn(Node* leaf, uint64_t index, Pools& pools,
                        bool* inserted) {
    uint64_t slot = LeafSlot(index);
    *inserted = (leaf->present & Bit(slot)) == 0;
    if (*inserted) {
      leaf->page[slot] = pools.pages.New();
      leaf->present |= Bit(slot);
    }
    return *leaf->page[slot];
  }
  // Removes the page at `index` from `leaf` (it must be present), dropping
  // its dirty tag, and returns it to `pools`. If that empties the leaf, the
  // leaf and every node above that empties with it go back to `pools` too
  // (counted in `node_frees`).
  void Erase(Node* leaf, uint64_t index, Pools& pools);

  // Tag or untag the present page at `index` in `leaf` as dirty. TagDirty
  // requires the page to be untagged, UntagDirty requires it to be tagged.
  // The tags above the leaf change only when the leaf gains its first or
  // loses its last dirty page.
  void TagDirty(Node* leaf, uint64_t index) {
    bool first = leaf->dirty == 0;
    leaf->dirty |= Bit(LeafSlot(index));
    ++dirty_;
    if (first) {
      TagAbove(index);
    }
  }
  void UntagDirty(Node* leaf, uint64_t index) {
    leaf->dirty &= ~Bit(LeafSlot(index));
    --dirty_;
    if (leaf->dirty == 0) {
      UntagAbove(index);
    }
  }
  uint64_t dirty_pages() const { return dirty_; }

  // Calls fn(page) for the first `max` dirty pages in ascending index
  // order. `fn` must not modify the tree.
  template <typename Fn>
  void ForEachDirty(uint64_t max, Fn&& fn) const {
    if (root_ != nullptr && max > 0) {
      WalkDirty(root_, height_ - 1, max, fn);
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
  // `index`, whose leaf must exist.
  void PathTo(uint64_t index, Node* path[kMaxHeight]) const;
  // Set or clear the tags of the leaf of `index` in the nodes above it.
  void TagAbove(uint64_t index);
  void UntagAbove(uint64_t index);

  // Returns false once `left` reaches zero.
  template <typename Fn>
  static bool WalkDirty(const Node* node, int level, uint64_t& left, Fn& fn) {
    for (uint64_t mask = node->dirty; mask != 0; mask &= mask - 1) {
      uint64_t slot = static_cast<uint64_t>(std::countr_zero(mask));
      if (level == 0) {
        fn(*node->page[slot]);
        if (--left == 0) {
          return false;
        }
      } else if (!WalkDirty(node->child[slot], level - 1, left, fn)) {
        return false;
      }
    }
    return true;
  }

  Node* root_ = nullptr;
  int height_ = 0;  // levels; the tree covers indices below 64^height_
  uint64_t dirty_ = 0;
};

// Remembers the last leaf it resolved, so a walk over nearby indices
// descends a tree once per leaf. It keeps a leaf only while no node of the
// pools has been freed since (a freed leaf's memory is reused), and never
// keeps a missing leaf (a later insert may create it).
class LeafCursor {
 public:
  PageTree::Node* Leaf(const PageTree& tree, uint64_t index,
                       const PageTree::Pools& pools) {
    uint64_t base = index - PageTree::LeafSlot(index);
    if (leaf_ == nullptr || tree_ != &tree || base_ != base ||
        node_frees_ != pools.node_frees) {
      tree_ = &tree;
      base_ = base;
      node_frees_ = pools.node_frees;
      leaf_ = tree.FindLeaf(index);
    }
    return leaf_;
  }

 private:
  const PageTree* tree_ = nullptr;
  uint64_t base_ = 0;
  uint64_t node_frees_ = 0;
  PageTree::Node* leaf_ = nullptr;
};

}  // namespace splitio

#endif  // SRC_CACHE_PAGE_TREE_H_
