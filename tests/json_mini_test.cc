// The hand-rolled JSON layer: escape coverage, parse-failure offsets, and
// the repro-path resolution used by `stress_runner --replay`.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/stress/runner.h"
#include "src/workload/json_mini.h"
#include "src/workload/program.h"

namespace splitio {
namespace {

std::string RoundTrip(const std::string& raw) {
  std::string encoded = "\"" + jsonmini::Escape(raw) + "\"";
  jsonmini::Cursor c(encoded);
  std::string decoded;
  EXPECT_TRUE(jsonmini::ParseString(c, &decoded)) << encoded;
  return decoded;
}

TEST(JsonMini, EscapeRoundTripsControlCharacters) {
  EXPECT_EQ(RoundTrip("plain"), "plain");
  EXPECT_EQ(RoundTrip("tab\there"), "tab\there");
  EXPECT_EQ(RoundTrip("cr\rlf\n"), "cr\rlf\n");
  EXPECT_EQ(RoundTrip("bell\bform\f"), "bell\bform\f");
  EXPECT_EQ(RoundTrip("quote\"back\\slash"), "quote\"back\\slash");
  EXPECT_EQ(RoundTrip(std::string("nul\x01mid", 7)),
            std::string("nul\x01mid", 7));
}

TEST(JsonMini, ParseStringAcceptsStandardEscapes) {
  auto parse = [](const std::string& json, std::string* out) {
    jsonmini::Cursor c(json);
    return jsonmini::ParseString(c, out);
  };
  std::string s;
  ASSERT_TRUE(parse("\"a\\r\\n\\t\\b\\f\\\"\\\\\\/z\"", &s));
  EXPECT_EQ(s, "a\r\n\t\b\f\"\\/z");
  ASSERT_TRUE(parse("\"\\u0041\\u007f\\u0009\"", &s));
  EXPECT_EQ(s, std::string("A\x7f\t"));
}

TEST(JsonMini, ParseStringRejectsBadEscapesWithOffset) {
  auto fails_at = [](const std::string& json, const char* what,
                     size_t offset) {
    jsonmini::Cursor c(json);
    std::string s;
    EXPECT_FALSE(jsonmini::ParseString(c, &s)) << json;
    EXPECT_TRUE(c.failed);
    jsonmini::ParseError err;
    c.ReportError(&err, "fallback");
    EXPECT_NE(err.message.find(what), std::string::npos)
        << json << " -> " << err.Describe();
    EXPECT_EQ(err.offset, offset) << json << " -> " << err.Describe();
  };
  // Offsets are where the primitive noticed the failure (just past the
  // offending character).
  fails_at("\"\\q\"", "unknown escape", 3);
  fails_at("\"ab\\", "unterminated escape", 4);
  fails_at("\"\\u12\"", "truncated \\u escape", 3);
  fails_at("\"\\uzzzz\"", "bad hex digit", 4);
  fails_at("\"\\u00e9\"", "non-ASCII", 7);  // beyond the ASCII range
  fails_at("\"never ends", "unterminated string", 11);
  fails_at("42", "expected string", 0);
}

TEST(JsonMini, ProgramParseFailureCarriesByteOffset) {
  WorkloadProgram program;
  jsonmini::ParseError err;
  std::string json = "{\"procs\":1,\"files\":1,\"ops\":[{\"k\":\"wrong\"}]}";
  EXPECT_FALSE(ProgramFromJson(json, &program, &err));
  EXPECT_GT(err.offset, 0u);
  EXPECT_LE(err.offset, json.size());
  EXPECT_FALSE(err.message.empty());
  EXPECT_NE(err.Describe().find("at byte"), std::string::npos);
}

TEST(JsonMini, ProgramRoundTripWithEscapedContent) {
  // The repro pipeline serializes oracle details containing quotes and
  // backslashes; the program itself has none, but the scenario wrapper
  // reuses the same Escape/ParseString pair.
  StressFailure failure;
  failure.seed = 9;
  failure.oracle = "completion";
  failure.detail = "op 3 stuck: \"write\" at offset 4096\\page";
  failure.scenario.program.ops.push_back(StressOp{});
  StressFailure parsed;
  jsonmini::ParseError err;
  ASSERT_TRUE(ReproFromJson(ReproToJson(failure), &parsed, &err))
      << err.Describe();
  EXPECT_EQ(parsed.oracle, failure.oracle);
  EXPECT_EQ(parsed.detail, failure.detail);
}

// A repro whose scenario does not parse reports the scenario parser's own
// reason, at the offending token's offset in the whole repro document.
TEST(JsonMini, ReproKeepsScenarioParseError) {
  StressFailure failure;
  failure.oracle = "completion";
  failure.scenario.stack.sched = SchedKind::kCfq;
  std::string json = ReproToJson(failure);
  size_t token = json.find("\"cfq\"");
  ASSERT_NE(token, std::string::npos);
  json.replace(token, 5, "\"frob\"");
  StressFailure parsed;
  jsonmini::ParseError err;
  EXPECT_FALSE(ReproFromJson(json, &parsed, &err));
  EXPECT_NE(err.message.find("unknown scheduler \"frob\""), std::string::npos)
      << err.Describe();
  EXPECT_EQ(err.offset, token) << err.Describe();
}

TEST(ResolveRepro, ExistingPathCanonicalized) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "splitio_resolve_test";
  fs::create_directories(dir);
  fs::path file = dir / "repro.json";
  std::ofstream(file) << "{}\n";
  std::string resolved = ResolveReproPath(file.string(), "");
  EXPECT_TRUE(fs::path(resolved).is_absolute());
  EXPECT_TRUE(fs::exists(resolved));
  fs::remove_all(dir);
}

TEST(ResolveRepro, ProbesExecutableDirectoryForRelativePaths) {
  namespace fs = std::filesystem;
  fs::path dir = fs::temp_directory_path() / "splitio_resolve_exe";
  fs::create_directories(dir / "bin");
  std::ofstream(dir / "repro.json") << "{}\n";
  std::ofstream(dir / "bin" / "near.json") << "{}\n";
  std::string exe = (dir / "bin" / "stress_runner").string();
  // Next to the binary.
  std::string near = ResolveReproPath("near.json", exe);
  EXPECT_TRUE(fs::exists(near)) << near;
  // In the binary's parent directory.
  std::string parent = ResolveReproPath("repro.json", exe);
  EXPECT_TRUE(fs::exists(parent)) << parent;
  // Unresolvable names come back unchanged so the error names the original
  // argument.
  EXPECT_EQ(ResolveReproPath("missing.json", exe), "missing.json");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace splitio
