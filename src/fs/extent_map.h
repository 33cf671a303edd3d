// A file's page -> disk sector map, stored as runs of consecutive pages at
// consecutive sectors. Allocation hands out whole chunks in page order, so
// a file holds a few runs instead of one entry per page: an 8 GB
// preallocated file is one run, not two million map nodes.
#ifndef SRC_FS_EXTENT_MAP_H_
#define SRC_FS_EXTENT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>

#include "src/device/device.h"

namespace splitio {

class ExtentMap {
 public:
  static constexpr uint64_t kSectorsPerPage = kPageSize / kSectorSize;

  // A mapped run seen from one of its pages: the page's sector and the
  // number of pages from it to the end of the run.
  struct RunFrom {
    uint64_t sector;
    uint64_t pages;
  };
  // The run from `page`, or nullopt if the page is unmapped (a hole).
  std::optional<RunFrom> LookupRun(uint64_t page) const;
  // Sector of `page`, or nullopt if the page is unmapped (a hole).
  std::optional<uint64_t> Lookup(uint64_t page) const {
    std::optional<RunFrom> run = LookupRun(page);
    return run ? std::optional<uint64_t>(run->sector) : std::nullopt;
  }

  // Resolves pages in ascending order with one LookupRun per run: it
  // remembers the last run it found. It stays valid while the map changes
  // only holes and pages it has passed.
  class Cursor {
   public:
    explicit Cursor(const ExtentMap& map) : map_(map) {}
    std::optional<uint64_t> Sector(uint64_t page) {
      if (page - first_ >= pages_) {
        std::optional<RunFrom> run = map_.LookupRun(page);
        if (!run) {
          return std::nullopt;
        }
        first_ = page;
        pages_ = run->pages;
        sector_ = run->sector;
      }
      return sector_ + (page - first_) * kSectorsPerPage;
    }

   private:
    const ExtentMap& map_;
    uint64_t first_ = 0;
    uint64_t pages_ = 0;
    uint64_t sector_ = 0;
  };

  // Maps `pages` pages from `first` to consecutive sectors from `sector`,
  // replacing any earlier mapping of those pages (a copy-on-write remap
  // splits the run it lands in). A run that becomes contiguous with a
  // neighbour, in pages and in sectors, merges with it.
  void Map(uint64_t first, uint64_t pages, uint64_t sector);
  void Set(uint64_t page, uint64_t sector) { Map(page, 1, sector); }

  size_t runs() const { return runs_.size(); }

 private:
  struct Run {
    uint64_t pages;
    uint64_t sector;  // sector of the run's first page
  };
  using Runs = std::map<uint64_t, Run>;  // first page -> run

  static uint64_t End(const Runs::value_type& run) {
    return run.first + run.second.pages;
  }
  static uint64_t SectorOf(const Runs::value_type& run, uint64_t page) {
    return run.second.sector + (page - run.first) * kSectorsPerPage;
  }

  Runs runs_;
};

}  // namespace splitio

#endif  // SRC_FS_EXTENT_MAP_H_
