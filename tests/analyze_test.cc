// Tests for newtos_analyze: each fixture fires exactly one diagnostic, the
// waiver fixture fires it waived, and the real tree re-analyzes clean under
// the checked-in analyze.toml.

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/analyze/analyze.h"

namespace newtos::analyze {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(ANALYZE_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

Config MustParse(const std::string& toml) {
  Config config;
  std::string error;
  EXPECT_TRUE(ParseConfig(toml, &config, &error)) << error;
  return config;
}

// Runs extraction + checks over one fixture file. extract_paths stays empty,
// so the fixture is lexed for the DES graph and scanned for spin sites.
std::vector<Diagnostic> RunFixture(const std::string& name, const Config& config,
                                   Model* model_out = nullptr) {
  Model model;
  ExtractSources({SourceFile{"fixtures/" + name, ReadFixture(name)}}, config, &model);
  std::vector<Diagnostic> diags;
  RunChecks(model, config, &diags);
  if (model_out != nullptr) {
    *model_out = model;
  }
  return diags;
}

// Notes (rule == "note") are informational; violations and waived violations
// are what the fixtures pin down.
std::vector<Diagnostic> NonNotes(const std::vector<Diagnostic>& diags) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule != "note") {
      out.push_back(d);
    }
  }
  return out;
}

TEST(AnalyzeFixture, SpscViolationFiresExactlyOnce) {
  const auto diags = NonNotes(RunFixture("spsc_violation.cc", MustParse("")));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "multi-producer");
  EXPECT_FALSE(diags[0].waived);
  EXPECT_NE(diags[0].message.find("rx/data"), std::string::npos);
  EXPECT_NE(diags[0].message.find("alpha"), std::string::npos);
  EXPECT_NE(diags[0].message.find("beta"), std::string::npos);
}

TEST(AnalyzeFixture, WaitCycleFiresExactlyOnceWithChain) {
  const Config config = MustParse(
      "[[blocking]]\n"
      "file = \"fixtures/wait_cycle.cc\"\n"
      "ring = \"*/in\"\n"
      "reason = \"fixture: both inputs are declared blocking to close the loop\"\n");
  const auto diags = NonNotes(RunFixture("wait_cycle.cc", config));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "wait-cycle");
  EXPECT_FALSE(diags[0].waived);
  // Canonical rotation starts at the lexicographically smallest role.
  EXPECT_NE(diags[0].message.find("ping -> pong/in -> pong -> ping/in -> ping"),
            std::string::npos)
      << diags[0].message;
}

TEST(AnalyzeFixture, CleanGraphHasNoDiagnosticsAndCanonicalWiring) {
  Model model;
  const auto diags = NonNotes(RunFixture("clean.cc", MustParse(""), &model));
  EXPECT_TRUE(diags.empty());
  std::ostringstream wiring;
  WriteDesWiring(model, wiring);
  EXPECT_EQ(wiring.str(),
            "ring mid/in consumer=mid producers=source\n"
            "ring sink/in consumer=sink producers=mid\n");
}

TEST(AnalyzeFixture, SharedWaiverStillFiresButWaivedWithReason) {
  const Config config = MustParse(
      "[[shared]]\n"
      "ring = \"mux/shared\"\n"
      "reason = \"fixture: left and right both feed the mux by design\"\n");
  const auto diags = NonNotes(RunFixture("waiver.cc", config));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "multi-producer");
  EXPECT_TRUE(diags[0].waived);
  EXPECT_EQ(diags[0].waive_reason,
            "fixture: left and right both feed the mux by design");
}

TEST(AnalyzeFixture, UnsanctionedPushFiresExactlyOnce) {
  const auto diags = NonNotes(RunFixture("unsanctioned_push.cc", MustParse("")));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "blocking-push");
  EXPECT_FALSE(diags[0].waived);
  EXPECT_EQ(diags[0].line, 13);
}

TEST(AnalyzeFixture, InPlacePushSpinFiresExactlyOnce) {
  const auto diags = NonNotes(RunFixture("in_place_push.cc", MustParse("")));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "blocking-push");
  EXPECT_FALSE(diags[0].waived);
  EXPECT_EQ(diags[0].line, 17);
  EXPECT_NE(diags[0].message.find("TryPushWith"), std::string::npos) << diags[0].message;
}

TEST(AnalyzeFixture, SanctionedPushIsWaived) {
  const Config config = MustParse(
      "[[blocking]]\n"
      "file = \"fixtures/unsanctioned_push.cc\"\n"
      "ring = \"none/none\"\n"
      "reason = \"fixture: sanctioned for the waiver variant of the test\"\n");
  const auto diags = NonNotes(RunFixture("unsanctioned_push.cc", config));
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "blocking-push");
  EXPECT_TRUE(diags[0].waived);
}

TEST(AnalyzeTree, RealTreeAnalyzesCleanUnderCheckedInConfig) {
  Config config;
  std::string error;
  ASSERT_TRUE(
      LoadConfig(std::string(ANALYZE_REPO_ROOT) + "/tools/analyze/analyze.toml",
                 &config, &error))
      << error;
  Model model;
  ASSERT_TRUE(ExtractTree(ANALYZE_REPO_ROOT, config, &model, &error)) << error;
  EXPECT_FALSE(model.des.empty());
  EXPECT_FALSE(model.live.empty());
  EXPECT_FALSE(model.live_watched.empty());
  std::vector<Diagnostic> diags;
  RunChecks(model, config, &diags);
  for (const Diagnostic& d : diags) {
    if (d.rule == "note") {
      continue;
    }
    EXPECT_TRUE(d.waived) << d.rule << " at " << d.file << ":" << d.line << ": "
                          << d.message;
  }
}

}  // namespace
}  // namespace newtos::analyze
