// Cause-set tags (§3.1, §4.1 of the paper).
//
// A CauseSet identifies the set of processes responsible for a piece of I/O
// work (a dirty page, a journal transaction, a block request). Unlike the
// scalar tags of Differentiated Storage Services, set tags survive batching:
// when two processes dirty the same page, or a journal transaction commits
// metadata on behalf of many writers, the union of causes is preserved.
//
// The framework's memory overhead (Figure 10) is exactly the memory consumed
// by these tags, so every CauseSet instance reports its heap footprint to a
// global accountant.
#ifndef SRC_CORE_CAUSES_H_
#define SRC_CORE_CAUSES_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>

namespace splitio {

// Tracks current/peak bytes allocated for cause tags across the simulation.
class TagMemoryAccountant {
 public:
  // Inline: every tag that grows or shrinks reports here.
  static TagMemoryAccountant& Instance() {
    static thread_local TagMemoryAccountant instance;
    return instance;
  }

  void Add(size_t bytes) {
    current_ += bytes;
    peak_ = std::max(peak_, current_);
  }
  void Remove(size_t bytes) { current_ -= bytes; }
  void Reset() {
    current_ = 0;
    peak_ = 0;
  }

  size_t current_bytes() const { return current_; }
  size_t peak_bytes() const { return peak_; }

 private:
  size_t current_ = 0;
  size_t peak_ = 0;
};

// A sorted, duplicate-free set of pids. Up to kInline pids live inside the
// object (most tags have one cause), so tagging a page allocates nothing.
//
// The reported footprint is the heap a sorted std::vector<int32_t> would
// hold for the same history: `cap_` follows the vector's capacity rule
// (insert at capacity grows to size + max(size, 1), a copy is exact, copy
// assignment keeps a capacity that fits, moves transfer it, Clear releases
// it). Figure 10 therefore measures the same bytes whichever storage holds
// the pids; the pids are on the heap exactly when cap_ > kInline.
class CauseSet {
 public:
  static constexpr uint32_t kInline = 2;

  CauseSet() = default;
  CauseSet(std::initializer_list<int32_t> pids) {
    for (int32_t pid : pids) {
      Add(pid);
    }
  }
  explicit CauseSet(int32_t pid) { Add(pid); }

  // A process's own identity set (Process::Causes). It exists once per
  // process, not per piece of work, so it is not a tag and reports no
  // footprint; copies of it do.
  static CauseSet Identity(int32_t pid) {
    CauseSet set;
    set.accounted_ = false;
    set.Add(pid);
    return set;
  }

  CauseSet(const CauseSet& other) {
    Reserve(other.size_);
    std::copy_n(other.data(), other.size_, data());
    size_ = other.size_;
    Account(Footprint());
  }
  CauseSet(CauseSet&& other) noexcept {
    // Footprint moved along with the storage; other now reports zero.
    Steal(other);
  }
  CauseSet& operator=(const CauseSet& other) {
    if (this != &other) {
      Unaccount(Footprint());
      if (other.size_ > cap_) {
        Release();
        Reserve(other.size_);
      }
      std::copy_n(other.data(), other.size_, data());
      size_ = other.size_;
      Account(Footprint());
    }
    return *this;
  }
  CauseSet& operator=(CauseSet&& other) noexcept {
    if (this != &other) {
      Unaccount(Footprint());
      Release();
      Steal(other);
    }
    return *this;
  }
  ~CauseSet() {
    Unaccount(Footprint());
    Release();
  }

  // Inserts a pid, keeping the set sorted and unique.
  void Add(int32_t pid) {
    int32_t* begin = data();
    int32_t* it = std::lower_bound(begin, begin + size_, pid);
    size_t pos = static_cast<size_t>(it - begin);
    if (pos < size_ && *it == pid) {
      return;
    }
    if (size_ == cap_) {
      size_t before = Footprint();
      Grow(size_ + std::max<uint32_t>(size_, 1));
      Account(Footprint() - before);
      begin = data();
    }
    std::copy_backward(begin + pos, begin + size_, begin + size_ + 1);
    begin[pos] = pid;
    ++size_;
  }

  // Unions `other` into this set.
  void Merge(const CauseSet& other) {
    for (int32_t pid : other.pids()) {
      Add(pid);
    }
  }

  void Clear() {
    Unaccount(Footprint());
    Release();
    size_ = 0;
  }

  bool Contains(int32_t pid) const {
    return std::binary_search(data(), data() + size_, pid);
  }

  // True if every pid in `other` is already in this set (Merge would be a
  // no-op). Both sets are sorted, so this is a linear scan.
  bool ContainsAll(const CauseSet& other) const {
    return std::includes(data(), data() + size_, other.data(),
                         other.data() + other.size_);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  std::span<const int32_t> pids() const { return {data(), size_}; }

  bool operator==(const CauseSet& other) const {
    return std::equal(data(), data() + size_, other.data(),
                      other.data() + other.size_);
  }

 private:
  bool on_heap() const { return cap_ > kInline; }
  int32_t* data() { return on_heap() ? heap_ : inline_; }
  const int32_t* data() const { return on_heap() ? heap_ : inline_; }

  size_t Footprint() const { return cap_ * sizeof(int32_t); }
  void Account(size_t bytes) {
    if (accounted_) {
      TagMemoryAccountant::Instance().Add(bytes);
    }
  }
  void Unaccount(size_t bytes) {
    if (accounted_) {
      TagMemoryAccountant::Instance().Remove(bytes);
    }
  }

  // Sets the capacity of an empty, released set.
  void Reserve(uint32_t cap) {
    cap_ = cap;
    if (on_heap()) {
      heap_ = new int32_t[cap];
    }
  }
  // Moves the pids to a larger capacity.
  void Grow(uint32_t cap) {
    if (cap <= kInline) {
      cap_ = cap;
      return;
    }
    int32_t* grown = new int32_t[cap];
    std::copy_n(data(), size_, grown);
    Release();
    cap_ = cap;
    heap_ = grown;
  }
  // Frees heap storage; the pids are gone afterwards. Leaves accounting to
  // the caller.
  void Release() {
    if (on_heap()) {
      delete[] heap_;
    }
    cap_ = 0;
  }
  // Takes `other`'s storage, capacity and accounting, leaving it empty.
  void Steal(CauseSet& other) {
    size_ = other.size_;
    cap_ = other.cap_;
    accounted_ = other.accounted_;
    if (on_heap()) {
      heap_ = other.heap_;
    } else {
      std::copy_n(other.inline_, other.size_, inline_);
    }
    other.size_ = 0;
    other.cap_ = 0;
  }

  uint32_t size_ = 0;
  uint32_t cap_ = 0;
  bool accounted_ = true;
  union {
    int32_t inline_[kInline] = {};
    int32_t* heap_;
  };
};

}  // namespace splitio

#endif  // SRC_CORE_CAUSES_H_
