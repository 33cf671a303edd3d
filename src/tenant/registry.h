// TenantRegistry: instantiates and drives 10^3..10^4 tenants over one
// shared StorageStack (ISSUE 7).
//
// Tenants are declared in *classes* — a named template (app shape, count,
// priority, token rates, SLO) stamped out `count` times. Three app shapes
// cover the cloud-backend mix the paper's applications motivate:
//
//   kOltp  — WalDb-style transaction log: small append into a preallocated
//            ring, fsync'd per commit. Latency-critical; the op latency is
//            append + fsync end to end.
//   kScan  — DFS-style sequential reader: large reads marching through a
//            preallocated file (wrapping), each op one read.
//   kBatch — PgSim-checkpoint-style bulk writer: a burst of large buffered
//            writes at random offsets, fsync every Nth arrival. The tenant
//            class whose dirty data entangles everyone else's fsyncs under
//            block-only scheduling.
//
// Each tenant is one closed-loop coroutine: exponential think time, one
// operation, record latency with the SloTracker. Per-tenant RNG streams are
// derived from (registry seed, tenant id) so runs are deterministic and
// tenant count changes do not reshuffle surviving tenants' behavior.
//
// ConfigureScheduler() installs the hierarchy on whichever token scheduler
// the stack carries: every tenant gets a leaf account (= its tenant id),
// classes map to groups, and class-level `group_rate_bps` becomes the
// cgroup-like group budget leaves draw from (src/tenant/hier_token).
#ifndef SRC_TENANT_REGISTRY_H_
#define SRC_TENANT_REGISTRY_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/storage_stack.h"
#include "src/obs/metrics.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/tenant/slo.h"

namespace splitio {

enum class TenantApp { kOltp, kScan, kBatch };

const char* TenantAppName(TenantApp app);

struct TenantClass {
  std::string name;
  TenantApp app = TenantApp::kOltp;
  int count = 0;
  int group = -1;  // token/SLO group id (also the admission grouping)
  int priority = kDefaultPriority;  // ionice best-effort level, 0..7
  uint64_t io_bytes = 4096;         // bytes per read/write
  uint64_t file_bytes = 1 << 20;    // per-tenant working set (preallocated)
  int burst_ops = 1;                // writes per arrival (kBatch)
  int fsync_every = 1;              // fsync every Nth arrival; 0 = never
  Nanos think_mean = Msec(200);     // mean exponential think time
  SloSpec slo;                      // 0-valued fields are unchecked
  double leaf_rate_bps = 0;         // per-tenant token rate; 0 = unlimited
  double group_rate_bps = 0;        // shared group budget; 0 = unlimited
  Nanos fsync_deadline = 0;         // split-deadline per-process override
};

struct TenantRegistryConfig {
  std::vector<TenantClass> classes;
  uint64_t seed = 1;
  Nanos until = Sec(5);  // tenants stop issuing new ops at this time

  // Burn-rate alerting (BurnRateTracker). One tracker per group whose class
  // carries a p99.9 objective; the objective is the window target. Always
  // on — evaluation is deterministic and does not perturb the run.
  Nanos burn_window = Sec(1);
  double burn_budget = 0.001;
  double burn_alert_factor = 50.0;
  uint64_t burn_min_violations = 2;
  Nanos burn_horizon = 0;  // 0: use `until` (drain completions clamp in)
};

class TenantRegistry {
 public:
  TenantRegistry(StorageStack* stack, TenantRegistryConfig config);

  // Creates one process + one preallocated file per tenant and registers
  // SLOs. Call before SpawnAll, inside an active Simulator.
  void Setup();

  // Installs leaf accounts / group budgets on the stack's token scheduler
  // (split-token or scs-token); a no-op for every other scheduler.
  void ConfigureScheduler();

  // Spawns one closed-loop driver coroutine per tenant.
  void SpawnAll(Simulator& sim);

  // Records a censored latency sample (`now` - op start) for every tenant
  // whose operation was still in flight when the simulation horizon ended.
  // The sample is a lower bound on the true latency, so a tail that already
  // exceeds the SLO at the horizon is correctly counted as a violation
  // instead of silently dropped with the unfinished op.
  void RecordCensored(Nanos now);

  SloTracker& slo() { return slo_; }
  // The burn-rate tracker for `group`, or nullptr when no class in that
  // group declared a p99.9 objective.
  const BurnRateTracker* burn(int group) const {
    auto it = burn_.find(group);
    return it != burn_.end() ? &it->second : nullptr;
  }
  const std::vector<TenantClass>& classes() const { return config_.classes; }
  uint64_t total_ops() const { return total_ops_; }
  // Operations that returned an error (admission -EAGAIN rejects land here).
  uint64_t failed_ops() const { return failed_ops_; }

 private:
  struct TenantState {
    int id = -1;
    const TenantClass* cls = nullptr;
    Process* proc = nullptr;
    int64_t ino = -1;
    uint64_t offset = 0;
    int arrivals_since_fsync = 0;
    Rng rng;
    // Start time of the op in flight; kNanosMax when thinking.
    Nanos op_start = kNanosMax;
    // Shared per-group / per-class telemetry sinks (null when absent).
    BurnRateTracker* burn = nullptr;       // always-on when group has a p999
    obs::LogHistogram* hist = nullptr;     // only when the metrics hub is on
    explicit TenantState(uint64_t seed) : rng(seed) {}
  };

  Task<void> RunTenant(TenantState* t);
  Task<void> RunOp(TenantState* t, bool* ok);

  StorageStack* stack_;
  TenantRegistryConfig config_;
  SloTracker slo_;
  std::map<int, BurnRateTracker> burn_;  // keyed by group id
  std::vector<std::unique_ptr<TenantState>> tenants_;
  uint64_t total_ops_ = 0;
  uint64_t failed_ops_ = 0;
};

}  // namespace splitio

#endif  // SRC_TENANT_REGISTRY_H_
