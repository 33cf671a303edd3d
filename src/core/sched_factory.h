// Scheduler factory: the one place that builds a scheduler. A scheduler is
// a PolicySpec (src/sched/policy.h); MakeSched turns one into a legacy
// elevator or a ComposedScheduler. SchedKind names the eight schedulers the
// experiments compare — the canonical prefix of the spec registry — so the
// bench harness, the stress subsystem and tests mean the same set by "all
// schedulers".
#ifndef SRC_CORE_SCHED_FACTORY_H_
#define SRC_CORE_SCHED_FACTORY_H_

#include <iterator>
#include <memory>
#include <span>
#include <string>

#include "src/block/elevator.h"
#include "src/core/scheduler.h"
#include "src/sched/policy.h"

namespace splitio {

// In registry order: SchedName(kind) is RegisteredSpecs()[kind].name.
enum class SchedKind {
  kNoop,
  kCfq,
  kBlockDeadline,
  kSplitNoop,
  kAfq,
  kSplitDeadline,
  kSplitToken,
  kScsToken,
};

inline constexpr SchedKind kAllSchedKinds[] = {
    SchedKind::kNoop,          SchedKind::kCfq,
    SchedKind::kBlockDeadline, SchedKind::kSplitNoop,
    SchedKind::kAfq,           SchedKind::kSplitDeadline,
    SchedKind::kSplitToken,    SchedKind::kScsToken,
};
static_assert(std::size(kAllSchedKinds) == kCanonicalSpecCount);

const char* SchedName(SchedKind kind);

// Parses a SchedName() string. Returns false on an unknown name.
bool SchedKindFromName(const char* name, SchedKind* out);

// The registry entries a SchedKind can name (its canonical prefix).
std::span<const RegisteredSpec> CanonicalSpecs();

// The shared unknown-scheduler diagnostic: names the offending token and
// lists the names the caller accepts — every registered name by default, or
// CanonicalSpecs() where only a SchedKind can be stored.
std::string UnknownSchedMessage(
    const std::string& token,
    std::span<const RegisteredSpec> accepted = RegisteredSpecs());

// Per-scheduler tuning knobs, all defaulted.
struct SchedConfigs {
  BlockDeadlineConfig block_deadline;
  SplitDeadlineConfig split_deadline;
  SplitTokenConfig split_token;
  ScsTokenConfig scs_token;
  CfqConfig cfq;
  AfqConfig afq;
};

// The canonical PolicySpec for a SchedKind, with its configs applied.
PolicySpec SpecForKind(SchedKind kind,
                       const SchedConfigs& configs = SchedConfigs());

// Exactly one member is non-null — matching StorageStack's constructor
// contract (split scheduler vs legacy block-only elevator).
struct SchedInstance {
  std::unique_ptr<SplitScheduler> split;
  std::unique_ptr<Elevator> legacy;
};

// Builds a scheduler from a declarative spec: a legacy elevator for the
// legacy dispatch kinds, a ComposedScheduler otherwise. The spec must pass
// ValidateSpec.
SchedInstance MakeSched(const PolicySpec& spec);

// MakeSched(SpecForKind(kind, configs)).
SchedInstance MakeSched(SchedKind kind,
                        const SchedConfigs& configs = SchedConfigs());

}  // namespace splitio

#endif  // SRC_CORE_SCHED_FACTORY_H_
