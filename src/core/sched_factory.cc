#include "src/core/sched_factory.h"

#include <cstring>

#include "src/block/block_deadline.h"
#include "src/block/cfq.h"
#include "src/block/noop.h"
#include "src/sched/composed.h"

namespace splitio {

const char* SchedName(SchedKind kind) {
  return RegisteredSpecs()[static_cast<size_t>(kind)].name;
}

std::span<const RegisteredSpec> CanonicalSpecs() {
  return RegisteredSpecs().first(kCanonicalSpecCount);
}

bool SchedKindFromName(const char* name, SchedKind* out) {
  for (SchedKind kind : kAllSchedKinds) {
    if (std::strcmp(name, SchedName(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  return false;
}

std::string UnknownSchedMessage(const std::string& token,
                                std::span<const RegisteredSpec> accepted) {
  std::string msg = "unknown scheduler \"" + token + "\" (expected one of";
  for (const RegisteredSpec& entry : accepted) {
    msg += ' ';
    msg += entry.name;
  }
  msg += ')';
  return msg;
}

PolicySpec SpecForKind(SchedKind kind, const SchedConfigs& configs) {
  switch (kind) {
    case SchedKind::kNoop: return BlockNoopSpec();
    case SchedKind::kCfq: return CfqSpec(configs.cfq);
    case SchedKind::kBlockDeadline:
      return BlockDeadlineSpec(configs.block_deadline);
    case SchedKind::kSplitNoop: return SplitNoopSpec();
    case SchedKind::kAfq: return AfqSpec(configs.afq);
    case SchedKind::kSplitDeadline:
      return SplitDeadlineSpec(configs.split_deadline);
    case SchedKind::kSplitToken: return SplitTokenSpec(configs.split_token);
    case SchedKind::kScsToken: return ScsTokenSpec(configs.scs_token);
  }
  return BlockNoopSpec();
}

SchedInstance MakeSched(const PolicySpec& spec) {
  SchedInstance out;
  switch (spec.dispatch) {
    case DispatchKind::kLegacyNoop:
      out.legacy = std::make_unique<NoopElevator>();
      break;
    case DispatchKind::kLegacyCfq:
      out.legacy = std::make_unique<CfqElevator>(spec.legacy_cfq);
      break;
    case DispatchKind::kLegacyDeadline:
      out.legacy =
          std::make_unique<BlockDeadlineElevator>(spec.legacy_deadline);
      break;
    default:
      out.split = std::make_unique<ComposedScheduler>(spec);
      break;
  }
  return out;
}

SchedInstance MakeSched(SchedKind kind, const SchedConfigs& configs) {
  return MakeSched(SpecForKind(kind, configs));
}

}  // namespace splitio
