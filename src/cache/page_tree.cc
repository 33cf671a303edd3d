#include "src/cache/page_tree.h"

namespace splitio {

PageTree::Node* PageTree::FindLeaf(uint64_t index) const {
  if (root_ == nullptr || !Covers(index)) {
    return nullptr;
  }
  Node* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    uint64_t slot = Slot(index, level);
    if ((node->present & Bit(slot)) == 0) {
      return nullptr;
    }
    node = node->child[slot];
  }
  return node;
}

PageTree::Node* PageTree::FindOrInsertLeaf(uint64_t index, Pools& pools) {
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
  return node;
}

void PageTree::PathTo(uint64_t index, Node* path[kMaxHeight]) const {
  Node* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    path[level] = node;
    node = node->child[Slot(index, level)];
  }
  path[0] = node;
}

void PageTree::Erase(Node* leaf, uint64_t index, Pools& pools) {
  uint64_t slot = LeafSlot(index);
  if ((leaf->dirty & Bit(slot)) != 0) {
    UntagDirty(leaf, index);
  }
  Page* page = leaf->page[slot];
  *page = Page{};
  pools.pages.Delete(page);
  leaf->present &= ~Bit(slot);
  if (leaf->present != 0) {
    return;
  }
  // The leaf emptied: free it, and clear its bit upward while nodes empty
  // out (freeing them). Emptied nodes hold no dirty tags.
  Node* path[kMaxHeight];
  PathTo(index, path);
  const int height = height_;
  for (int level = 0; level < height; ++level) {
    Node* node = path[level];
    if (level > 0) {
      node->present &= ~Bit(Slot(index, level));
      if (node->present != 0) {
        break;
      }
    }
    pools.nodes.Delete(node);
    ++pools.node_frees;
    if (level == height - 1) {
      root_ = nullptr;
      height_ = 0;
    }
  }
}

void PageTree::TagAbove(uint64_t index) {
  Node* node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    uint64_t slot = Slot(index, level);
    node->dirty |= Bit(slot);
    node = node->child[slot];
  }
}

void PageTree::UntagAbove(uint64_t index) {
  Node* path[kMaxHeight];
  PathTo(index, path);
  for (int level = 1; level < height_; ++level) {
    path[level]->dirty &= ~Bit(Slot(index, level));
    if (path[level]->dirty != 0) {
      break;
    }
  }
}

}  // namespace splitio
