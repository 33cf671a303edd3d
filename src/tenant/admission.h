// Syscall-layer admission control for multi-tenant stacks (ISSUE 7).
//
// Token schedulers throttle *inside* the stack: a call that entered the
// kernel sleeps in a scheduler entry hook until its account is solvent. A
// cloud front-end needs a knob one layer earlier — bound how many calls a
// tenant may have in flight at all (queue depth), and optionally turn
// over-limit work away with an explicit error instead of queueing it
// (load shedding). This controller sits at the OsKernel data-path entry
// (read / write / fsync) and implements both:
//
//  - queue-depth limits: per-tenant and global in-flight syscall caps;
//  - token-debt gating: when wired to a scheduler's HierTokenAccounts, a
//    tenant whose leaf or group budget is in debt is stopped at the door;
//  - two over-limit policies: *delay* (block the caller until admissible,
//    the default) or *reject* (return -EAGAIN immediately).
//
// Every decision is accounted per tenant and in aggregate — admitted,
// delayed (with total simulated delay), rejected — so benches can export
// reject/delay rates per tenant class to BENCHJSON. Tenancy is keyed by
// Process::account(): the same id that binds a process to a token leaf.
#ifndef SRC_TENANT_ADMISSION_H_
#define SRC_TENANT_ADMISSION_H_

#include <map>

#include "src/core/process.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/tenant/hier_token.h"

namespace splitio {

inline constexpr int kEagain = -11;  // matches the kernel errno convention

struct AdmissionConfig {
  // Max in-flight data-path syscalls per tenant account (0 = unlimited).
  int max_inflight_per_tenant = 0;
  // Max in-flight data-path syscalls across all tenants (0 = unlimited).
  int max_inflight_total = 0;
  // Gate on token debt: when an accounts tree is attached, a tenant that
  // cannot admit (leaf or group in debt) is delayed/rejected at entry.
  bool gate_on_token_debt = false;
  // Over-limit policy: false = delay the caller, true = reject (-EAGAIN).
  bool reject = false;
  // Re-check period while waiting out token debt (queue-depth waits wake
  // exactly on slot release instead).
  Nanos debt_poll = Msec(10);
};

class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  // Wires token-debt gating to a scheduler's account tree (not owned; may
  // be null — queue-depth limits still apply).
  void AttachAccounts(const HierTokenAccounts* accounts) {
    accounts_ = accounts;
  }

  // Syscall entry. Returns 0 once admitted (the caller may have been
  // delayed) or kEagain when the reject policy turned the call away.
  // Every 0-return must be paired with an Exit() when the syscall ends.
  Task<int> Enter(Process& proc);
  void Exit(Process& proc);

  struct Stats {
    uint64_t admitted = 0;
    uint64_t delayed = 0;   // admitted, but only after waiting
    uint64_t rejected = 0;
    Nanos delay_ns = 0;     // total simulated time spent waiting
    int inflight = 0;
  };

  // Per-tenant stats (empty Stats for accounts never seen).
  Stats TenantStats(int account) const;
  const Stats& totals() const { return totals_; }

 private:
  bool OverQueueLimit(int account) const;
  bool InTokenDebt(int account) const;

  AdmissionConfig config_;
  const HierTokenAccounts* accounts_ = nullptr;
  std::map<int, Stats> by_tenant_;
  Stats totals_;
  Event slot_free_;
};

}  // namespace splitio

#endif  // SRC_TENANT_ADMISSION_H_
