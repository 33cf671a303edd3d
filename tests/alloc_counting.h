// Test helper for checks on the `allocs` counter (src/metrics/alloc_hook.cc).
#ifndef TESTS_ALLOC_COUNTING_H_
#define TESTS_ALLOC_COUNTING_H_

#include <cstdint>
#include <new>

#include "src/metrics/counters.h"

namespace splitio {

// Sanitizer runtimes replace the counting operator new; allocs stays put.
inline bool AllocsAreCounted() {
  const uint64_t before = counters().allocs;
  void* p = ::operator new(1);
  ::operator delete(p);
  return counters().allocs > before;
}

}  // namespace splitio

#endif  // TESTS_ALLOC_COUNTING_H_
