// PolicySpec unit tests: the registry, validation rules, JSON round-trips
// (byte-identical re-serialization), the shared unknown-token error path,
// and the stress scenario's composed-spec axis.
#include <gtest/gtest.h>

#include <span>
#include <string>

#include "src/core/sched_factory.h"
#include "src/sched/policy.h"
#include "src/sim/random.h"
#include "src/stress/scenario.h"

namespace splitio {
namespace {

TEST(PolicySpecRegistry, CanonicalKindsThenHybrids) {
  std::span<const RegisteredSpec> registry = RegisteredSpecs();
  ASSERT_EQ(registry.size(), 10u);
  // Canonical kinds first, in SchedKind order; the hybrids close the list.
  for (size_t i = 0; i < std::size(kAllSchedKinds); ++i) {
    EXPECT_STREQ(registry[i].name, SchedName(kAllSchedKinds[i]));
  }
  EXPECT_STREQ(registry[8].name, "deadline-token");
  EXPECT_STREQ(registry[9].name, "tenant-afq");

  PolicySpec spec;
  for (const RegisteredSpec& entry : registry) {
    ASSERT_TRUE(NamedPolicySpec(entry.name, &spec)) << entry.name;
    EXPECT_EQ(spec, entry.build()) << entry.name;
    EXPECT_EQ(spec.name, entry.name);
    EXPECT_EQ(ValidateSpec(spec), "") << entry.name;
  }
  EXPECT_FALSE(NamedPolicySpec("no-such-policy", &spec));
}

TEST(PolicySpecRegistry, SpecForKindMatchesRegistry) {
  for (SchedKind kind : kAllSchedKinds) {
    PolicySpec by_kind = SpecForKind(kind);
    PolicySpec by_name;
    ASSERT_TRUE(NamedPolicySpec(SchedName(kind), &by_name));
    EXPECT_EQ(by_kind, by_name) << SchedName(kind);
    SchedKind parsed;
    ASSERT_TRUE(SchedKindFromName(SchedName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  SchedKind parsed;
  EXPECT_FALSE(SchedKindFromName("deadline-token", &parsed));
}

TEST(PolicySpecRegistry, UnknownSchedMessageListsEveryName) {
  std::string msg = UnknownSchedMessage("bogus");
  EXPECT_NE(msg.find("unknown scheduler \"bogus\""), std::string::npos) << msg;
  for (const RegisteredSpec& entry : RegisteredSpecs()) {
    EXPECT_NE(msg.find(entry.name), std::string::npos) << msg;
  }
}

// Callers that store a SchedKind list only the canonical names.
TEST(PolicySpecRegistry, UnknownSchedMessageCanListOnlyKinds) {
  std::string msg = UnknownSchedMessage("bogus", CanonicalSpecs());
  for (SchedKind kind : kAllSchedKinds) {
    EXPECT_NE(msg.find(SchedName(kind)), std::string::npos) << msg;
  }
  EXPECT_EQ(msg.find("deadline-token"), std::string::npos) << msg;
  EXPECT_EQ(msg.find("tenant-afq"), std::string::npos) << msg;
}

TEST(PolicySpecValidate, RejectsInterAxisContradictions) {
  // Legacy dispatch with a split-level axis.
  PolicySpec spec = CfqSpec();
  spec.budget = BudgetKind::kHierTokens;
  EXPECT_NE(ValidateSpec(spec), "");

  // Stride-pass budget without stride dispatch.
  spec = SplitNoopSpec();
  spec.budget = BudgetKind::kStridePass;
  EXPECT_NE(ValidateSpec(spec), "");

  // Account queue key without stride dispatch.
  spec = SplitNoopSpec();
  spec.key = QueueKey::kAccount;
  EXPECT_NE(ValidateSpec(spec), "");

  // Non-daemon writeback without deadline dispatch.
  spec = SplitTokenSpec();
  spec.writeback = WritebackKind::kSchedOwned;
  EXPECT_NE(ValidateSpec(spec), "");

  // Cause-charging tag rule with no ledger to charge into.
  spec = SplitNoopSpec();
  spec.tag = TagRule::kCauses;
  EXPECT_NE(ValidateSpec(spec), "");

  // deadline.own_wb out of sync with the writeback axis.
  spec = SplitDeadlineSpec();
  spec.deadline.own_writeback = !spec.deadline.own_writeback;
  EXPECT_NE(ValidateSpec(spec), "");

  spec = PolicySpec();
  EXPECT_NE(ValidateSpec(spec), "");  // empty name
}

TEST(PolicySpecJson, RegisteredSpecsRoundTripByteIdentical) {
  for (const RegisteredSpec& entry : RegisteredSpecs()) {
    PolicySpec spec = entry.build();
    std::string json = PolicySpecToJson(spec);
    PolicySpec parsed;
    jsonmini::ParseError err;
    ASSERT_TRUE(PolicySpecFromJson(json, &parsed, &err))
        << entry.name << ": " << err.Describe();
    EXPECT_EQ(parsed, spec) << entry.name;
    EXPECT_EQ(PolicySpecToJson(parsed), json) << entry.name;
  }
}

TEST(PolicySpecJson, RandomSpecsValidAndRoundTrip) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    PolicySpec spec = RandomPolicySpec(rng);
    ASSERT_EQ(ValidateSpec(spec), "") << "seed " << seed << ": " << spec.name;
    std::string json = PolicySpecToJson(spec);
    PolicySpec parsed;
    jsonmini::ParseError err;
    ASSERT_TRUE(PolicySpecFromJson(json, &parsed, &err))
        << "seed " << seed << ": " << err.Describe();
    EXPECT_EQ(parsed, spec) << "seed " << seed;
    EXPECT_EQ(PolicySpecToJson(parsed), json) << "seed " << seed;
  }
}

TEST(PolicySpecJson, UnknownAxisValueReportsTokenAndOffset) {
  std::string json = PolicySpecToJson(SplitTokenSpec());
  size_t pos = json.find("\"hier-tokens\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 13, "\"hyper-tokens\"");

  PolicySpec parsed;
  jsonmini::ParseError err;
  EXPECT_FALSE(PolicySpecFromJson(json, &parsed, &err));
  // Same contract as the trace parsers: the message names the offending
  // token and the offset points at it.
  EXPECT_NE(err.message.find("unknown budget \"hyper-tokens\""),
            std::string::npos)
      << err.Describe();
  EXPECT_EQ(err.offset, pos) << err.Describe();
  EXPECT_EQ(json.compare(err.offset, 14, "\"hyper-tokens\""), 0);
}

TEST(PolicySpecJson, InvalidCompositionFailsParseWithReason) {
  PolicySpec spec = SplitTokenSpec();
  std::string json = PolicySpecToJson(spec);
  size_t pos = json.find("\"pid\"");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 5, "\"account\"");  // account key needs stride dispatch

  PolicySpec parsed;
  jsonmini::ParseError err;
  EXPECT_FALSE(PolicySpecFromJson(json, &parsed, &err));
  EXPECT_NE(err.message.find("invalid policy spec"), std::string::npos)
      << err.Describe();
}

TEST(ScenarioSpec, SpecAxisRoundTripsThroughScenarioJson) {
  // Hunt a handful of seeds whose generated scenario drew the composed-spec
  // axis; the draw fires on ~1/4 of seeds.
  int found = 0;
  for (uint64_t seed = 1; seed <= 64 && found < 4; ++seed) {
    Scenario scenario = GenerateScenario(seed);
    if (!scenario.stack.use_spec) {
      continue;
    }
    ++found;
    EXPECT_EQ(ValidateSpec(scenario.stack.spec), "") << "seed " << seed;
    std::string json = ScenarioToJson(scenario);
    Scenario parsed;
    jsonmini::ParseError err;
    ASSERT_TRUE(ScenarioFromJson(json, &parsed, &err))
        << "seed " << seed << ": " << err.Describe();
    EXPECT_EQ(parsed, scenario) << "seed " << seed;
    EXPECT_EQ(ScenarioToJson(parsed), json) << "seed " << seed;
  }
  EXPECT_GT(found, 0) << "no seed in [1,64] drew the spec axis";
}

TEST(ScenarioSpec, UnknownSchedNameReportsTokenAndOffset) {
  Scenario scenario = GenerateScenario(1);
  const std::string json = ScenarioToJson(scenario);
  std::string quoted = std::string("\"") + SchedName(scenario.stack.sched) + "\"";
  size_t pos = json.find("\"sched\":" + quoted);
  ASSERT_NE(pos, std::string::npos);
  size_t token = pos + 8;  // the value token after the key and colon
  auto reject = [&](const std::string& name) {
    std::string bad = json;
    bad.replace(token, quoted.size(), "\"" + name + "\"");
    Scenario parsed;
    jsonmini::ParseError err;
    EXPECT_FALSE(ScenarioFromJson(bad, &parsed, &err)) << name;
    EXPECT_NE(err.message.find("unknown scheduler \"" + name + "\""),
              std::string::npos)
        << err.Describe();
    EXPECT_EQ(err.offset, token) << err.Describe();
    return err.message;
  };
  reject("frob");

  // A hybrid is a registered scheduler, but this key stores canonical kinds
  // only (hybrids live under "spec"), so the message must not offer it.
  std::string msg = reject("tenant-afq");
  size_t expected = msg.find("expected one of");
  ASSERT_NE(expected, std::string::npos) << msg;
  EXPECT_EQ(msg.find("tenant-afq", expected), std::string::npos) << msg;
  EXPECT_EQ(msg.find("deadline-token", expected), std::string::npos) << msg;
  EXPECT_NE(msg.find("split-token", expected), std::string::npos) << msg;
}

}  // namespace
}  // namespace splitio
