#include "src/fs/extent_map.h"

#include <iterator>

namespace splitio {

std::optional<ExtentMap::RunFrom> ExtentMap::LookupRun(uint64_t page) const {
  auto it = runs_.upper_bound(page);
  if (it == runs_.begin()) {
    return std::nullopt;
  }
  --it;
  if (page >= End(*it)) {
    return std::nullopt;
  }
  return RunFrom{SectorOf(*it, page), End(*it) - page};
}

void ExtentMap::Map(uint64_t first, uint64_t pages, uint64_t sector) {
  if (pages == 0) {
    return;
  }
  const uint64_t end = first + pages;
  // A run that starts before `first` and reaches into the range: done if it
  // already maps the whole range there, else cut it at `first` (keeping any
  // part beyond `end` as its own run).
  auto it = runs_.upper_bound(first);
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    uint64_t prev_end = End(*prev);
    if (prev_end > first) {
      if (prev_end >= end && SectorOf(*prev, first) == sector) {
        return;
      }
      if (prev->first < first) {
        if (prev_end > end) {
          runs_.emplace_hint(it, end,
                             Run{prev_end - end, SectorOf(*prev, end)});
        }
        prev->second.pages = first - prev->first;
      }
    }
  }
  // Drop the runs that start inside the range, keeping a tail past `end`.
  it = runs_.lower_bound(first);
  while (it != runs_.end() && it->first < end) {
    if (End(*it) > end) {
      Run tail{End(*it) - end, SectorOf(*it, end)};
      it = runs_.erase(it);
      it = runs_.emplace_hint(it, end, tail);
      break;
    }
    it = runs_.erase(it);
  }
  // `it` is now the first run at or after `end`. Extend the left neighbour
  // in place when contiguous, else insert; then absorb the right one.
  Runs::iterator run;
  auto left = it == runs_.begin() ? runs_.end() : std::prev(it);
  if (left != runs_.end() && End(*left) == first &&
      SectorOf(*left, first) == sector) {
    left->second.pages += pages;
    run = left;
  } else {
    run = runs_.emplace_hint(it, first, Run{pages, sector});
  }
  if (it != runs_.end() && it->first == end &&
      SectorOf(*run, end) == it->second.sector) {
    run->second.pages += it->second.pages;
    runs_.erase(it);
  }
}

}  // namespace splitio
