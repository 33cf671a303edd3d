// A seeded random request stream that pins an elevator's dispatch order.
//
// Each step either adds a request (a read or a write at a random sector and
// size, a quarter of them contiguous with the previous add so back-merges
// happen; an eighth of the writes sync and an eighth journal writes), runs a
// burst of Next() calls, or advances the clock by up to 50 ms, past the
// expiries. Requests come from a submitter without deadline overrides, from
// two with read/write overrides (one shorter and one longer than the
// elevator's defaults), or from no submitter. Every add is offered to
// TryMerge first. The stream ends by draining the elevator.
//
// The digest counts dispatches and hashes (request id, sector, Now()) of
// each with FNV-1a, so any change to the dispatch order changes it.
#ifndef TESTS_DISPATCH_STREAM_H_
#define TESTS_DISPATCH_STREAM_H_

#include <cstdint>
#include <memory>

#include "src/block/elevator.h"
#include "src/core/process.h"
#include "src/device/device.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"

namespace splitio {

struct DispatchDigest {
  uint64_t dispatched = 0;
  uint64_t hash = 14695981039346656037ULL;

  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
};

inline DispatchDigest RunDispatchStream(Elevator& elv, uint64_t seed,
                                        int steps = 20000) {
  Simulator sim;
  Process plain(1, "plain");
  Process fast(2, "fast");
  fast.set_read_deadline(Msec(5));
  fast.set_write_deadline(Msec(30));
  Process slow(3, "slow");
  slow.set_read_deadline(Msec(60));
  slow.set_write_deadline(Msec(300));
  Process* const submitters[4] = {nullptr, &plain, &fast, &slow};

  DispatchDigest digest;
  auto dispatch = [&] {
    BlockRequestPtr req = elv.Next();
    if (req == nullptr) {
      return false;
    }
    ++digest.dispatched;
    digest.Mix(req->request_id);
    digest.Mix(req->sector);
    digest.Mix(static_cast<uint64_t>(Simulator::current().Now()));
    return true;
  };
  auto body = [&]() -> Task<void> {
    Rng rng(seed);
    uint64_t next_id = 0;
    uint64_t last_end = 0;
    for (int step = 0; step < steps; ++step) {
      uint64_t kind = rng.Below(10);
      if (kind < 6) {
        auto req = std::make_shared<BlockRequest>();
        req->request_id = ++next_id;
        req->is_write = rng.Below(2) == 0;
        req->sector = rng.Below(4) == 0 ? last_end : rng.Below(1 << 20) * 8;
        req->bytes = static_cast<uint32_t>((1 + rng.Below(16)) * kPageSize);
        uint64_t flavor = rng.Below(8);
        req->is_sync = !req->is_write || flavor == 0;
        req->is_journal = req->is_write && flavor == 1;
        req->submitter = submitters[rng.Below(4)];
        req->enqueue_time = Simulator::current().Now();
        last_end = req->sector + req->bytes / kSectorSize;
        if (!elv.TryMerge(req)) {
          elv.Add(std::move(req));
        }
      } else if (kind < 9) {
        for (uint64_t n = rng.Below(5); n > 0; --n) {
          dispatch();
        }
      } else {
        co_await Delay(Msec(static_cast<int64_t>(rng.Below(50))));
      }
    }
    while (dispatch()) {
    }
  };
  sim.Spawn(body());
  sim.Run();
  return digest;
}

}  // namespace splitio

#endif  // TESTS_DISPATCH_STREAM_H_
