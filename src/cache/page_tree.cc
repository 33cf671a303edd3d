#include "src/cache/page_tree.h"

namespace splitio {

Page* PageTree::Find(uint64_t index) const {
  if (root_ == nullptr || !Covers(index)) {
    return nullptr;
  }
  const Node* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    uint64_t slot = Slot(index, level);
    if ((node->present & Bit(slot)) == 0) {
      return nullptr;
    }
    node = node->child[slot];
  }
  uint64_t slot = Slot(index, 0);
  return (node->present & Bit(slot)) != 0 ? node->page[slot] : nullptr;
}

Page& PageTree::FindOrInsert(uint64_t index, Pools& pools, bool* inserted) {
  if (root_ == nullptr) {
    root_ = pools.nodes.New();
    height_ = 1;
  }
  while (!Covers(index)) {
    Node* top = pools.nodes.New();
    top->present = 1;
    top->dirty = root_->dirty != 0 ? 1 : 0;
    top->child[0] = root_;
    root_ = top;
    ++height_;
  }
  Node* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    uint64_t slot = Slot(index, level);
    if ((node->present & Bit(slot)) == 0) {
      node->child[slot] = pools.nodes.New();
      node->present |= Bit(slot);
    }
    node = node->child[slot];
  }
  uint64_t slot = Slot(index, 0);
  *inserted = (node->present & Bit(slot)) == 0;
  if (*inserted) {
    node->page[slot] = pools.pages.New();
    node->present |= Bit(slot);
  }
  return *node->page[slot];
}

void PageTree::PathTo(uint64_t index, Node* path[kMaxHeight]) const {
  Node* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    path[level] = node;
    node = node->child[Slot(index, level)];
  }
  path[0] = node;
}

void PageTree::Erase(uint64_t index, Pools& pools) {
  Node* path[kMaxHeight];
  PathTo(index, path);
  uint64_t leaf_bit = Bit(Slot(index, 0));
  if ((path[0]->dirty & leaf_bit) != 0) {
    --dirty_;
  }
  Page* page = path[0]->page[Slot(index, 0)];
  *page = Page{};
  pools.pages.Delete(page);
  // Clear the slot's bits upward: `present` while nodes empty out (freeing
  // them), `dirty` while subtrees lose their last dirty page.
  bool unlink = true;
  bool untag = true;
  const int height = height_;
  for (int level = 0; level < height && (unlink || untag); ++level) {
    Node* node = path[level];
    uint64_t bit = Bit(Slot(index, level));
    if (unlink) {
      node->present &= ~bit;
    }
    if (untag) {
      node->dirty &= ~bit;
    }
    unlink = node->present == 0;
    untag = node->dirty == 0;
    if (unlink) {
      pools.nodes.Delete(node);
      if (level == height - 1) {
        root_ = nullptr;
        height_ = 0;
      }
    }
  }
}

void PageTree::TagDirty(uint64_t index) {
  Node* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    uint64_t slot = Slot(index, level);
    node->dirty |= Bit(slot);
    node = node->child[slot];
  }
  node->dirty |= Bit(Slot(index, 0));
  ++dirty_;
}

void PageTree::UntagDirty(uint64_t index) {
  Node* path[kMaxHeight];
  PathTo(index, path);
  for (int level = 0; level < height_; ++level) {
    path[level]->dirty &= ~Bit(Slot(index, level));
    if (path[level]->dirty != 0) {
      break;
    }
  }
  --dirty_;
}

}  // namespace splitio
