// Sharded simulation (src/sim/shard.h): the conservative epoch protocol
// must deliver cross-shard messages at their timestamps in a deterministic
// order, count causality violations, land shard activity in the caller's
// counters as it happens — and, above all, simulate the same timeline for
// any grouping of the cluster's nodes onto shards. The matrix test sweeps
// shard groupings x schedulers x seeds on the sharded DFS cluster; the
// check_shard_determinism ctest byte-compares repeated runs' full process
// output (tables + BENCHJSON) through the bench binary.
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/dfs_sharded.h"
#include "src/metrics/counters.h"
#include "src/sim/shard.h"
#include "src/sim/simulator.h"

namespace splitio {
namespace {

TEST(ShardGroup, DeliversSetupSendsWithoutAnyLocalEvents) {
  ShardGroup::Config gc;
  gc.shards = 2;
  gc.lookahead = Usec(10);
  ShardGroup group(gc);
  bool delivered = false;
  Nanos at = -1;
  group.Setup(0, [&]() {
    group.Send(/*node=*/0, 1, Usec(25), [&]() {
      delivered = true;
      at = Simulator::current().Now();
    });
  });
  ShardRunStats rs = group.Run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(at, Usec(25));
  EXPECT_EQ(rs.messages, 1u);
  EXPECT_EQ(rs.causality_violations, 0u);
}

// Two shards bounce a message back and forth: delivery times advance by
// exactly the one-way latency, one epoch and one wake-up per hop.
TEST(ShardGroup, PingPongAdvancesOneHopPerEpoch) {
  constexpr int kRounds = 64;
  constexpr Nanos kHop = Usec(10);
  ShardGroup::Config gc;
  gc.shards = 2;
  gc.lookahead = kHop;
  ShardGroup group(gc);
  std::vector<Nanos> arrivals;
  int hops = 0;
  // The handler re-sends to the peer until kRounds hops happened. It runs
  // inside whichever shard the message addressed, so Current() resolves and
  // Send is legal.
  std::function<void()> bounce = [&]() {
    arrivals.push_back(Simulator::current().Now());
    if (++hops >= kRounds) {
      return;
    }
    int self = ShardGroup::Current()->id();
    group.Send(self, 1 - self, Simulator::current().Now() + kHop, bounce);
  };
  group.Setup(0, [&]() { group.Send(0, 1, kHop, bounce); });
  ShardRunStats rs = group.Run();
  ASSERT_EQ(arrivals.size(), static_cast<size_t>(kRounds));
  for (int i = 0; i < kRounds; ++i) {
    EXPECT_EQ(arrivals[static_cast<size_t>(i)], kHop * (i + 1));
  }
  EXPECT_EQ(rs.messages, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(rs.causality_violations, 0u);
  EXPECT_EQ(rs.epochs, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(rs.events, static_cast<uint64_t>(kRounds));
}

// Same-epoch ties: messages from different source shards (one node each,
// node id = shard id) landing at the same destination timestamp must
// execute in (deliver_time, sending node, src seq) order, not in the order
// the sources were set up — also when every source interleaves sends to
// several destinations (itself included) at out-of-order times.
TEST(ShardGroup, TieBreakBySourceShardThenSeq) {
  struct Msg {
    int dst;
    Nanos at;
  };
  // Send k of source s is logged as s * 100 + k at its destination.
  const Msg kSends[] = {{0, Usec(30)}, {2, Usec(10)}, {0, Usec(10)},
                        {2, Usec(10)}, {0, Usec(10)}, {3, Usec(20)}};
  ShardGroup::Config gc;
  gc.shards = 4;
  gc.lookahead = Usec(10);
  ShardGroup group(gc);
  std::vector<std::vector<int>> log(4);  // one log per destination
  for (int src : {3, 1, 2}) {  // deliberately not in id order
    group.Setup(src, [&, src]() {
      for (int k = 0; k < 6; ++k) {
        const Msg& s = kSends[k];
        group.Send(src, s.dst, s.at, [&log, s, label = src * 100 + k]() {
          EXPECT_EQ(Simulator::current().Now(), s.at);
          log[static_cast<size_t>(s.dst)].push_back(label);
        });
      }
    });
  }
  ShardRunStats rs = group.Run();
  EXPECT_EQ(rs.messages, 18u);
  EXPECT_EQ(log[0],
            (std::vector<int>{102, 104, 202, 204, 302, 304, 100, 200, 300}));
  EXPECT_TRUE(log[1].empty());
  EXPECT_EQ(log[2], (std::vector<int>{101, 103, 201, 203, 301, 303}));
  EXPECT_EQ(log[3], (std::vector<int>{105, 205, 305}));
}

// Ties are broken by the sending node, not by the shard hosting it: two
// nodes sending to shard 0 at the same time are delivered in node order
// whether they live on separate shards or share one, and whatever order
// the shared shard sent them in.
TEST(ShardGroup, TieBreakBySendingNodeWhateverItsShard) {
  for (bool shared : {false, true}) {
    ShardGroup::Config gc;
    gc.shards = 3;
    gc.lookahead = Usec(10);
    ShardGroup group(gc);
    std::vector<int> log;
    auto send = [&](int node) {
      group.Send(node, 0, Usec(10), [&log, node]() { log.push_back(node); });
    };
    if (shared) {
      group.Setup(1, [&]() {
        send(5);
        send(4);
      });
    } else {
      group.Setup(1, [&]() { send(5); });
      group.Setup(2, [&]() { send(4); });
    }
    group.Run();
    EXPECT_EQ(log, (std::vector<int>{4, 5})) << "shared=" << shared;
  }
}

TEST(ShardGroup, CountsCausalityViolations) {
  ShardGroup::Config gc;
  gc.shards = 2;
  gc.lookahead = Usec(100);
  ShardGroup group(gc);
  group.Setup(0, [&]() {
    group.Send(0, 1, Usec(99), [] {});   // below the lookahead: violation
    group.Send(0, 1, Usec(100), [] {});  // exactly at the bound: legal
  });
  ShardRunStats rs = group.Run();
  EXPECT_EQ(rs.messages, 2u);
  EXPECT_EQ(rs.causality_violations, 1u);
}

// A whole-cluster fingerprint: per-client application results, total
// events, and the exact counter delta of the run (allocs included).
struct Fingerprint {
  std::vector<uint64_t> bytes;
  std::vector<uint64_t> ops;
  uint64_t events = 0;
  uint64_t violations = 0;
  Counters delta;

  bool operator==(const Fingerprint& other) const {
    return bytes == other.bytes && ops == other.ops &&
           events == other.events && violations == other.violations &&
           std::memcmp(&delta, &other.delta, sizeof(Counters)) == 0;
  }
};

// Runs `clients_per_group` clients in the throttled account 1 (capped at
// 8 MB/s per worker) and as many unthrottled ones until `end`.
Fingerprint RunDfs(const ShardedDfs::Config& config, int clients_per_group,
                   Nanos end) {
  Counters before = counters();
  Fingerprint fp;
  {
    ShardedDfs cluster(config);
    cluster.Start();
    cluster.SetAccountLimit(1, 8.0 * 1024 * 1024);
    const auto n = static_cast<size_t>(clients_per_group);
    std::vector<WorkloadStats> stats(2 * n);
    for (size_t i = 0; i < n; ++i) {
      cluster.AddClient(static_cast<int>(i), /*account=*/1, end, &stats[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      cluster.AddClient(100 + static_cast<int>(i), /*account=*/-1, end,
                        &stats[n + i]);
    }
    ShardRunStats rs = cluster.Run(end);
    for (const WorkloadStats& s : stats) {
      fp.bytes.push_back(s.bytes);
      fp.ops.push_back(s.ops);
    }
    fp.events = rs.events;
    fp.violations = rs.causality_violations;
  }
  fp.delta = counters().Delta(before);
  return fp;
}

// Runs whose nodes are grouped onto shards differently must simulate the
// same timeline: client results, events and every counter but allocs (shard
// objects and outboxes scale with the shard count).
void ExpectSameTimeline(Fingerprint a, Fingerprint b, const std::string& what) {
  a.delta.allocs = 0;
  b.delta.allocs = 0;
  EXPECT_EQ(a.bytes, b.bytes) << what;
  EXPECT_EQ(a.ops, b.ops) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(a.violations, b.violations) << what;
#define SPLITIO_EXPECT_SAME_COUNTER(name) \
  EXPECT_EQ(a.delta.name, b.delta.name) << #name << " " << what;
  SPLITIO_COUNTER_FIELDS(SPLITIO_EXPECT_SAME_COUNTER)
#undef SPLITIO_EXPECT_SAME_COUNTER
}

Fingerprint RunCluster(SchedKind sched, uint64_t seed, int workers_per_shard,
                       Nanos lookahead_override = 0) {
  ShardedDfs::Config config;
  config.workers = 9;
  config.workers_per_shard = workers_per_shard;
  config.block_bytes = 2ULL << 20;
  config.sched = sched;
  config.seed = seed;
  config.lookahead_override = lookahead_override;
  return RunDfs(config, /*clients_per_group=*/2, Msec(150));
}

// The headline guarantee: the sharded DFS cluster simulates the same
// timeline whether its 9 workers sit on 9, 3 or 1 worker shards, for every
// scheduler and seed.
TEST(ShardedDfs, SameTimelineAcrossGroupingsSchedsSeeds) {
  for (SchedKind sched : kAllSchedKinds) {
    for (uint64_t seed : {1234u, 99991u}) {
      Fingerprint spread = RunCluster(sched, seed, /*workers_per_shard=*/1);
      EXPECT_EQ(spread.violations, 0u);
      EXPECT_GT(spread.events, 0u);
      for (int grouping : {4, 9}) {
        ExpectSameTimeline(RunCluster(sched, seed, grouping), spread,
                           std::string("sched=") + SchedName(sched) +
                               " seed=" + std::to_string(seed) +
                               " grouping=" + std::to_string(grouping));
      }
    }
  }
}

// Regression: the epoch exchange used to order same-time messages by the
// shard hosting the sender. Replies from workers on separate shards then
// reached the clients in shard order, replies from workers sharing a shard
// in send order, so the client shard resumed same-time callers differently
// and the timeline depended on the grouping. Workers share no state, so
// every grouping must simulate the same timeline; only allocation counts
// (shard objects, outboxes) may differ.
TEST(ShardedDfs, TimelineIndependentOfWorkerGrouping) {
  ShardedDfs::Config config;
  config.workers = 3;
  config.block_bytes = 4ULL << 20;
  config.sched = SchedKind::kSplitToken;
  Fingerprint spread = RunDfs(config, /*clients_per_group=*/8, Sec(2));
  config.workers_per_shard = 3;
  Fingerprint shared = RunDfs(config, /*clients_per_group=*/8, Sec(2));
  EXPECT_EQ(spread.violations, 0u);
  ExpectSameTimeline(shared, spread, "3 workers on 1 shard vs 3");
}

// Re-running the same configuration twice in one process must also agree —
// no state bleeds across ShardedDfs instances.
TEST(ShardedDfs, RepeatRunsAreIdentical) {
  Fingerprint a = RunCluster(SchedKind::kSplitToken, 7, 1);
  Fingerprint b = RunCluster(SchedKind::kSplitToken, 7, 1);
  EXPECT_TRUE(a == b);
}

// Negative control: inflating the lookahead past the real RPC latency
// breaks the conservative contract and must be caught by the violation
// counter (the determinism ctest asserts the same through the bench CLI).
TEST(ShardedDfs, PerturbedLookaheadIsCaught) {
  Fingerprint fp =
      RunCluster(SchedKind::kSplitToken, 1234, 1,
                 /*lookahead_override=*/Usec(200));
  EXPECT_GT(fp.violations, 0u);
}

// Shard activity lands in the calling thread's counters.
TEST(ShardGroup, FoldsShardCountersIntoCaller) {
  Counters before = counters();
  ShardGroup::Config gc;
  gc.shards = 3;
  gc.lookahead = Usec(10);
  ShardGroup group(gc);
  for (int i = 0; i < 3; ++i) {
    group.Setup(i, [&]() {
      Simulator::current().Spawn([]() -> Task<void> {
        for (int k = 0; k < 5; ++k) {
          co_await Delay(Usec(3));
        }
      }());
    });
  }
  group.Run();
  Counters delta = counters().Delta(before);
  // 3 shards x (1 spawn + 5 delays) = 18 wake-ups.
  EXPECT_EQ(delta.sim_events, 18u);
}

// Sanitizer runtimes replace the counting operator new; allocs stays put.
bool AllocsAreCounted() {
  const uint64_t before = counters().allocs;
  void* p = ::operator new(1);
  ::operator delete(p);
  return counters().allocs > before;
}

// Counter activity inside Setup lands in the caller's counters when it
// happens, not at the next Run: a spawn's same-time wake-up and its
// coroutine frame count before any epoch runs.
TEST(ShardGroup, SetupCountersLandWhenTheyHappen) {
  ShardGroup::Config gc;
  gc.shards = 2;
  ShardGroup group(gc);
  const Counters before = counters();
  group.Setup(1, [&]() {
    Simulator::current().Spawn([]() -> Task<void> {
      co_await Delay(Usec(3));
    }());
  });
  Counters delta = counters().Delta(before);
  EXPECT_EQ(delta.sim_immediate, 1u);
  if (AllocsAreCounted()) {
    EXPECT_GT(delta.allocs, 0u);
  }
  EXPECT_EQ(group.stats().epochs, 0u);
  group.Run();
}

}  // namespace
}  // namespace splitio
