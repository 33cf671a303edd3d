#include "src/apps/cloud_backend.h"

#include <memory>
#include <utility>

#include "src/obs/metrics.h"
#include "src/sched/composed.h"
#include "src/tenant/admission.h"

namespace splitio {

namespace {

constexpr double kMB = 1024.0 * 1024.0;

}  // namespace

const CloudGroupOutcome* CloudBackendResult::Group(
    const std::string& name) const {
  for (const CloudGroupOutcome& g : groups) {
    if (g.name == name) {
      return &g;
    }
  }
  return nullptr;
}

std::vector<TenantClass> CloudTenantMix(int tenants) {
  // 20/30/50 gold/silver/bronze; rounding residue goes to bronze.
  int gold = tenants * 20 / 100;
  int silver = tenants * 30 / 100;
  int bronze = tenants - gold - silver;

  TenantClass g;
  g.name = "gold";
  g.app = TenantApp::kOltp;
  g.count = gold;
  g.group = 0;
  g.priority = 1;
  g.io_bytes = 4096;
  g.file_bytes = 256 << 10;
  g.fsync_every = 1;
  // Per-tenant rates are cloud-shaped: each customer is mostly idle, the
  // aggregate (~67 commits/s at 1000 tenants) fits the shared disk with
  // room to spare — when bronze is kept in check.
  g.think_mean = Sec(3);
  g.slo.p999 = Msec(750);
  g.fsync_deadline = Msec(100);  // split-deadline: commits are urgent

  TenantClass s;
  s.name = "silver";
  s.app = TenantApp::kScan;
  s.count = silver;
  s.group = 1;
  s.priority = 4;
  s.io_bytes = 64 << 10;
  s.file_bytes = 1 << 20;  // fits clean cache across the fleet after warmup
  s.fsync_every = 0;
  s.think_mean = Sec(4);
  s.slo.p999 = Sec(2);

  TenantClass b;
  b.name = "bronze";
  b.app = TenantApp::kBatch;
  b.count = bronze;
  b.group = 2;
  b.priority = 7;
  b.io_bytes = 256 << 10;
  b.file_bytes = 4 << 20;
  b.burst_ops = 2;
  b.fsync_every = 4;
  // Unthrottled offered load ~125 MB/s of dirty data at 1000 tenants —
  // the disk drains a tenth of that, so block-only schedulers accept an
  // ever-growing backlog that every fsync then wades through.
  b.think_mean = Sec(2);
  // The hierarchical budget: each bronze tenant may burst to 2 MB/s, but
  // the tier as a whole draws from one 6 MB/s group bucket — the knob the
  // block-only schedulers do not have.
  b.leaf_rate_bps = 2.0 * kMB;
  b.group_rate_bps = 6.0 * kMB;

  return {g, s, b};
}

CloudBackendResult RunCloudBackend(const CloudBackendParams& params) {
  Simulator sim;
  CpuModel cpu(16);
  PolicySpec spec;
  if (!NamedPolicySpec(params.sched, &spec)) {
    CloudBackendResult bad;
    bad.conservation_error = UnknownSchedMessage(params.sched);
    return bad;
  }
  SchedInstance inst = MakeSched(spec);
  // Unified token-budget surface: split-token, scs-token, and any hybrid
  // spec with a token axis all expose the hierarchical accounts here.
  auto* composed = dynamic_cast<ComposedScheduler*>(inst.split.get());
  bool token_budget = composed != nullptr && composed->has_token_budget();

  StackConfig cfg;
  if (params.mq) {
    cfg.mq.enabled = true;
    cfg.mq.nr_hw_queues = 4;
    cfg.mq.queue_depth = 16;
  }
  StorageStack stack(cfg, &cpu, std::move(inst.split),
                     std::move(inst.legacy));
  stack.Start();

  TenantRegistryConfig rcfg;
  rcfg.classes = CloudTenantMix(params.tenants);
  rcfg.seed = params.seed;
  rcfg.until = params.duration;
  rcfg.burn_window = params.burn_window;
  rcfg.burn_budget = params.burn_budget;
  rcfg.burn_alert_factor = params.burn_alert_factor;
  rcfg.burn_min_violations = params.burn_min_violations;
  // Drain-phase completions count too: gold commits stuck behind a bronze
  // backlog at the horizon are exactly the burn the alert must see.
  rcfg.burn_horizon = params.duration + params.drain;
  TenantRegistry registry(&stack, rcfg);
  registry.Setup();
  registry.ConfigureScheduler();

  AdmissionConfig acfg;
  acfg.max_inflight_per_tenant = params.max_inflight_per_tenant;
  acfg.gate_on_token_debt = true;
  acfg.reject = params.admission_reject;
  AdmissionController admission(acfg);
  if (params.admission) {
    if (token_budget) {
      admission.AttachAccounts(&composed->accounts());
    }
    stack.kernel().set_admission(&admission);
  }

  // Multi-tenant telemetry gauges: per-tier token-bucket fill and admission
  // in-flight/delayed, alongside the stack-level gauges Start() registered.
  obs::MetricsHub* hub = obs::ActiveMetricsHub();
  if (hub != nullptr) {
    if (token_budget) {
      for (const TenantClass& cls : registry.classes()) {
        if (cls.group >= 0 && cls.group_rate_bps > 0) {
          int group = cls.group;
          hub->AddGauge(&registry, "tok_" + cls.name, "bytes",
                        [composed, group](Nanos) {
                          return composed->accounts().GroupBalance(group);
                        });
        }
      }
    }
    if (params.admission) {
      hub->AddGauge(&registry, "adm_inflight", "ops", [&admission](Nanos) {
        return static_cast<double>(admission.totals().inflight);
      });
      hub->AddGauge(&registry, "adm_delayed", "ops", [&admission](Nanos) {
        return static_cast<double>(admission.totals().delayed);
      });
    }
  }

  registry.SpawnAll(sim);
  sim.Run(params.duration + params.drain);
  registry.RecordCensored(params.duration + params.drain);
  if (hub != nullptr) {
    hub->RemoveOwner(&registry);
  }

  CloudBackendResult result;
  result.total_ops = registry.total_ops();
  result.failed_ops = registry.failed_ops();
  result.violating_tenants = registry.slo().ViolatingTenants();
  result.admission_admitted = admission.totals().admitted;
  result.admission_delayed = admission.totals().delayed;
  result.admission_rejected = admission.totals().rejected;
  result.admission_delay = admission.totals().delay_ns;
  if (token_budget) {
    result.conservation_error = composed->accounts().CheckConservation(1.0);
  }

  for (const auto& report : registry.slo().GroupReports()) {
    CloudGroupOutcome out;
    out.group = report.group;
    for (const TenantClass& cls : registry.classes()) {
      if (cls.group == report.group) {
        out.name = cls.name;
        out.slo_p999 = cls.slo.p999;
        break;
      }
    }
    out.tenants = report.tenants;
    out.ops = report.ops;
    out.p50 = report.p50;
    out.p99 = report.p99;
    out.p999 = report.p999;
    out.max = report.max;
    out.violating_tenants = report.violating_tenants;
    if (const BurnRateTracker* burn = registry.burn(report.group)) {
      BurnRateTracker::Report br = burn->Evaluate();
      out.burn_windows = br.windows_with_ops;
      out.burn_alert_windows = br.alert_windows;
      out.first_burn_alert = br.first_alert;
      out.worst_burn_fraction = br.worst_fraction;
      if (hub != nullptr) {
        obs::MetricsHub::AlertSummary alert;
        alert.name = "burn_" + out.name;
        alert.window = burn->config().window;
        alert.target = burn->config().target;
        alert.budget = burn->config().budget;
        alert.windows = br.windows_with_ops;
        alert.alert_windows = br.alert_windows;
        alert.first_alert = br.first_alert;
        alert.worst_fraction = br.worst_fraction;
        alert.worst_window_start = br.worst_window_start;
        hub->AddAlertSummary(std::move(alert));
        hub->AddSampledSeries("burn_" + out.name, "frac",
                              burn->config().window,
                              burn->WindowFractions());
      }
    }
    result.groups.push_back(out);
  }
  return result;
}

}  // namespace splitio
