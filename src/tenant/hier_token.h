// Hierarchical token accounting: per-tenant (leaf) buckets drawing from
// per-group (cgroup-like) budgets.
//
// The paper's token schedulers (§5.3, Figures 13–16) keep one flat
// TokenBucket per account. At cloud scale (ISSUE 7 / ROADMAP item 5) that
// is not enough: a provider sells *classes* of service (gold / bronze), and
// the isolation guarantee is two-level — a tenant may not exceed its own
// rate, and a whole class may not exceed the class budget no matter how
// many tenants it contains. This class layers exactly that on top of the
// existing TokenBucket machinery:
//
//  - every leaf (tenant account) owns a TokenBucket, as before;
//  - a leaf may be bound to a group; the group owns a budget bucket;
//  - Charge(leaf, cost) charges the leaf AND its group — leaf tokens draw
//    from the group budget;
//  - CanAdmit(leaf) requires both the leaf and the group to be solvent, so
//    a class that collectively exhausted its budget is throttled even when
//    individual members still hold private tokens.
//
// Accounting conservation is a checkable invariant: for every group, the
// total charged to the group equals the sum charged to its member leaves
// (CheckConservation). A deliberate mutation knob (set_buggy_group_skip)
// breaks the group-side charge so tests can prove the oracle catches
// broken hierarchies — the same negative-control discipline src/stress
// applies to the crash and elevator oracles.
//
// A leaf with no group behaves bit-for-bit like the old flat bucket, which
// keeps the figure benches byte-identical.
#ifndef SRC_TENANT_HIER_TOKEN_H_
#define SRC_TENANT_HIER_TOKEN_H_

#include <map>
#include <string>

#include "src/sched/util.h"
#include "src/sim/time.h"

namespace splitio {

class HierTokenAccounts {
 public:
  // Creates (or reconfigures) a leaf account. `burst_seconds` of rate is
  // the bucket capacity, matching ComposedScheduler::SetAccountLimit.
  void SetLeafLimit(int leaf, double bytes_per_sec, double burst_seconds);

  // Creates (or reconfigures) a group budget bucket.
  void SetGroupLimit(int group, double bytes_per_sec, double burst_seconds);

  // Binds a leaf to a group (creating the leaf unthrottled if unknown). A
  // leaf belongs to at most one group; rebinding moves it.
  void BindLeafToGroup(int leaf, int group);

  // Charges `cost` to the leaf bucket and, when bound, to its group
  // budget. Unknown (unthrottled, group-less) leaves are a no-op, matching
  // the flat schedulers' "no bucket, no charge" behavior; an unthrottled
  // leaf bound to a group still charges the group. Negative cost refunds.
  void Charge(int leaf, double cost);

  // True when the leaf's bucket (if any) and its group's budget (if any)
  // are both non-negative. Unknown leaves are always admissible.
  bool CanAdmit(int leaf) const;

  // Refills every leaf and group bucket to `now`.
  void RefillAll(Nanos now);

  // True when at least one leaf would be admitted (used by refill loops to
  // decide whether to wake throttled waiters). Leaves never charged are
  // not consulted — an idle account cannot unblock anyone.
  bool AnyAdmittable() const;

  bool HasLeaf(int leaf) const { return leaves_.count(leaf) > 0; }
  // Group of `leaf`, or -1 when unbound.
  int GroupOf(int leaf) const;

  double LeafBalance(int leaf) const;
  double GroupBalance(int group) const;
  // Cumulative (signed) cost charged; refunds subtract.
  double LeafCharged(int leaf) const;
  double GroupCharged(int group) const;

  // Conservation oracle: for every group, the cumulative charge on the
  // group must equal the sum over member leaves of their cumulative
  // charges made while bound. Returns an empty string when conserved, else
  // a human-readable description of the first discrepancy.
  std::string CheckConservation(double tolerance = 1e-6) const;

  // Mutation negative control: when set, Charge() skips the group-side
  // charge. Group budgets silently stop limiting anything — exactly the
  // bug CheckConservation must catch.
  void set_buggy_group_skip(bool buggy) { buggy_group_skip_ = buggy; }

 private:
  struct Leaf {
    TokenBucket bucket;
    bool limited = false;  // false: no private rate (group-only accounting)
    int group = -1;
    double charged = 0;          // lifetime signed cost
    double charged_in_group = 0; // portion charged while bound to `group`
  };
  struct Group {
    TokenBucket bucket;
    double charged = 0;
  };

  std::map<int, Leaf> leaves_;
  std::map<int, Group> groups_;
  bool buggy_group_skip_ = false;
};

}  // namespace splitio

#endif  // SRC_TENANT_HIER_TOKEN_H_
