// End-to-end tests for tools/rcp-lint against the golden fixture tree in
// tests/lint/fixtures/. Each fixture file violates exactly one rule class;
// the tests assert the exact `file:line: error: ... [rule-id]` diagnostics,
// the suppression semantics, and the process exit codes.
//
// The binary path and fixture root arrive via compile definitions
// (RCP_LINT_BIN, RCP_LINT_FIXTURES) so the test works from any build dir.
#include <gtest/gtest.h>

// rcp-lint: allow(os-header) test harness inspects subprocess exit status
#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct LintRun {
  int exit_code = -1;
  std::string output;
  std::vector<std::string> lines;
};

/// Runs rcp-lint with the fixture root/rules plus `extra_args`, capturing
/// combined stdout+stderr and the exit status.
LintRun run_lint(const std::string& extra_args) {
  const std::string cmd = std::string(RCP_LINT_BIN) + " --root " +
                          RCP_LINT_FIXTURES + " --rules " + RCP_LINT_FIXTURES +
                          "/rules.toml " + extra_args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) {
    return run;
  }
  std::array<char, 4096> buf{};
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    run.output.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  run.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status)
                                                     : -1;
  std::istringstream in(run.output);
  for (std::string line; std::getline(in, line);) {
    run.lines.push_back(line);
  }
  return run;
}

/// True when some output line starts with `prefix` and ends with `[rule]`.
bool has_diag(const LintRun& run, const std::string& prefix,
              const std::string& rule) {
  const std::string tag = "[" + rule + "]";
  for (const std::string& line : run.lines) {
    if (line.rfind(prefix, 0) == 0 && line.size() >= tag.size() &&
        line.compare(line.size() - tag.size(), tag.size(), tag) == 0) {
      return true;
    }
  }
  return false;
}

int count_rule(const LintRun& run, const std::string& rule) {
  const std::string tag = "[" + rule + "]";
  int n = 0;
  for (const std::string& line : run.lines) {
    if (line.size() >= tag.size() &&
        line.compare(line.size() - tag.size(), tag.size(), tag) == 0) {
      ++n;
    }
  }
  return n;
}

TEST(LintTool, LayerViolationsReportExactLines) {
  const LintRun run = run_lint("src/core/layer_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_TRUE(has_diag(run, "src/core/layer_violation.cpp:5: error:", "layer"))
      << run.output;
  EXPECT_TRUE(has_diag(run, "src/core/layer_violation.cpp:6: error:", "layer"))
      << run.output;
  EXPECT_TRUE(has_diag(run, "src/core/layer_violation.cpp:7: error:", "layer"))
      << run.output;
  EXPECT_EQ(count_rule(run, "layer"), 3) << run.output;
}

TEST(LintTool, OsHeadersBannedOutsideNetRuntime) {
  const LintRun run = run_lint("src/core/os_header_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (int line : {5, 6, 7}) {
    EXPECT_TRUE(has_diag(run,
                         "src/core/os_header_violation.cpp:" +
                             std::to_string(line) + ": error:",
                         "os-header"))
        << run.output;
  }
  EXPECT_EQ(count_rule(run, "os-header"), 3) << run.output;
}

TEST(LintTool, ExclusiveHeaderFlaggedEvenInsideOsAllowPath) {
  const LintRun run = run_lint("src/net/os_exclusive_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // <poll.h> on line 4 passes (src/net/ is an os_headers allow path);
  // only the [[os_exclusive]] <sys/epoll.h> include is an error.
  EXPECT_TRUE(has_diag(run, "src/net/os_exclusive_violation.cpp:5: error:",
                       "os-exclusive"))
      << run.output;
  EXPECT_EQ(count_rule(run, "os-exclusive"), 1) << run.output;
  EXPECT_EQ(count_rule(run, "os-header"), 0) << run.output;
}

TEST(LintTool, SimdHeaderConfinedToKernelTu) {
  const LintRun run = run_lint("src/core/simd_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // <immintrin.h> is [[os_exclusive]] with an empty allow list: raw SIMD
  // intrinsics are banned everywhere, src/core/ included; the bit tables
  // use the standard library instead.
  EXPECT_TRUE(has_diag(run, "src/core/simd_violation.cpp:4: error:",
                       "os-exclusive"))
      << run.output;
  EXPECT_EQ(count_rule(run, "os-exclusive"), 1) << run.output;
}

TEST(LintTool, DeterminismBansTokensAndCalls) {
  const LintRun run = run_lint("src/core/determinism_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (int line : {7, 8, 9, 10, 11}) {
    EXPECT_TRUE(has_diag(run,
                         "src/core/determinism_violation.cpp:" +
                             std::to_string(line) + ": error:",
                         "determinism"))
        << run.output;
  }
  // Strings, comments, and `my_strand` (identifier boundary) stay clean.
  EXPECT_EQ(count_rule(run, "determinism"), 5) << run.output;
}

TEST(LintTool, DeterminismStrictBansClocksInFuzzPaths) {
  const LintRun run =
      run_lint("src/fuzz/determinism_strict_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // Line 3: the <chrono> include; line 6: the steady_clock token.
  EXPECT_TRUE(has_diag(run,
                       "src/fuzz/determinism_strict_violation.cpp:3: error:",
                       "determinism-strict"))
      << run.output;
  EXPECT_TRUE(has_diag(run,
                       "src/fuzz/determinism_strict_violation.cpp:6: error:",
                       "determinism-strict"))
      << run.output;
  // `unsteady_clock_name` (identifier boundary) stays clean, and the base
  // determinism rule — which allows steady_clock — reports nothing.
  EXPECT_EQ(count_rule(run, "determinism-strict"), 2) << run.output;
  EXPECT_EQ(count_rule(run, "determinism"), 0) << run.output;
}

TEST(LintTool, DeterminismStrictOnlyAppliesToStrictPaths) {
  // steady_clock in a non-strict path is legal (it feeds timing reports):
  // the clean core fixture plus the rest of the tree report no
  // determinism-strict hits outside src/fuzz/.
  const LintRun run = run_lint("src/core/clean.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(count_rule(run, "determinism-strict"), 0) << run.output;
}

TEST(LintTool, HotPathAllocationContract) {
  const LintRun run = run_lint("src/sim/hot_path.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (int line : {8, 9, 10, 11, 12}) {
    EXPECT_TRUE(has_diag(run,
                         "src/sim/hot_path.cpp:" + std::to_string(line) +
                             ": error:",
                         "hot-alloc"))
        << run.output;
  }
  // Free functions named push_back/resize (no member access) are not hits.
  EXPECT_EQ(count_rule(run, "hot-alloc"), 5) << run.output;
}

TEST(LintTool, EchoPathAllocationFixtureMirrorsRealCoverage) {
  // Mirrors the real tree's [allocation] coverage of the Byzantine echo
  // path (src/core/echo_engine.cpp and friends): one violation per
  // growth-call class banned by the flat quorum accounting, plus one
  // honoured suppression.
  const LintRun run = run_lint("src/core/echo_hot_alloc.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (int line : {10, 11, 12}) {
    EXPECT_TRUE(has_diag(run,
                         "src/core/echo_hot_alloc.cpp:" +
                             std::to_string(line) + ": error:",
                         "hot-alloc"))
        << run.output;
  }
  EXPECT_EQ(count_rule(run, "hot-alloc"), 3) << run.output;
  EXPECT_NE(run.output.find("rcp-lint: 1 files, 3 error(s), 1 suppression(s) "
                            "(1 diagnostic(s) suppressed)"),
            std::string::npos)
      << run.output;
}

TEST(LintTool, ThresholdLiteralsFlagged) {
  const LintRun run = run_lint("src/core/threshold_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  for (int line : {12, 13, 14, 21, 22, 23}) {
    EXPECT_TRUE(has_diag(run,
                         "src/core/threshold_violation.cpp:" +
                             std::to_string(line) + ": error:",
                         "threshold"))
        << run.output;
  }
  // `(count + 2) / 2` on line 16 and `params_.k + 10` on line 25 are not
  // quorum shapes.
  EXPECT_EQ(count_rule(run, "threshold"), 6) << run.output;
}

TEST(LintTool, SuppressionsSilenceDiagnosticsAndAreCounted) {
  const LintRun run = run_lint("src/core/suppressed.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  // 3 markers; the whole-file os-header marker covers two includes, so 4
  // diagnostics are suppressed in total.
  EXPECT_NE(run.output.find("rcp-lint: 1 files, 0 error(s), 3 suppression(s) "
                            "(4 diagnostic(s) suppressed)"),
            std::string::npos)
      << run.output;
}

TEST(LintTool, ListSuppressionsPrintsReasons) {
  const LintRun run = run_lint("--list-suppressions src/core/suppressed.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("src/core/suppressed.cpp:9: note: "
                            "allow(threshold) — fixture: standalone marker "
                            "covers next line"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("src/core/suppressed.cpp:11: note: "
                            "allow(determinism) — fixture: same-line marker"),
            std::string::npos)
      << run.output;
}

TEST(LintTool, UnusedAndMalformedSuppressionsAreErrors) {
  const LintRun run = run_lint("src/core/unused_suppression.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_TRUE(has_diag(run, "src/core/unused_suppression.cpp:5: error:",
                       "unused-suppression"))
      << run.output;
  EXPECT_TRUE(has_diag(run, "src/core/unused_suppression.cpp:7: error:",
                       "bad-suppression"))
      << run.output;
}

TEST(LintTool, CleanFileExitsZero) {
  const LintRun run = run_lint("src/core/clean.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("rcp-lint: 1 files, 0 error(s), 0 suppression(s) "
                            "(0 diagnostic(s) suppressed)"),
            std::string::npos)
      << run.output;
}

TEST(LintTool, ThreadSafetyViolationsReportExactLines) {
  const LintRun run = run_lint("src/runtime/tsa_violation.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  // 11: guarded member without the mutex; 12: REQUIRES call without it;
  // 15: EXCLUDES call made while a scoped locker holds it.
  for (int line : {11, 12, 15}) {
    EXPECT_TRUE(has_diag(run,
                         "src/runtime/tsa_violation.cpp:" +
                             std::to_string(line) + ": error:",
                         "thread-safety"))
        << run.output;
  }
  EXPECT_EQ(count_rule(run, "thread-safety"), 3) << run.output;
}

TEST(LintTool, ThreadSafetyCleanDisciplineExitsZero) {
  // Scoped lockers, manual lock/unlock, unlock-then-relock, an asserted
  // ThreadAffinity, and a NO_THREAD_SAFETY_ANALYSIS observer: no diags.
  const LintRun run = run_lint("src/runtime/tsa_clean.cpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(count_rule(run, "thread-safety"), 0) << run.output;
}

TEST(LintTool, ThreadSafetyMergesAnnotationsAcrossFiles) {
  // The annotations live in tsa_split.hpp; the violations are in the
  // out-of-line definitions in tsa_split.cpp. Only the merged class model
  // can catch them.
  const LintRun run =
      run_lint("src/runtime/tsa_split.hpp src/runtime/tsa_split.cpp");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_TRUE(has_diag(run, "src/runtime/tsa_split.cpp:8: error:",
                       "thread-safety"))
      << run.output;
  EXPECT_TRUE(has_diag(run, "src/runtime/tsa_split.cpp:9: error:",
                       "thread-safety"))
      << run.output;
  EXPECT_EQ(count_rule(run, "thread-safety"), 2) << run.output;
}

TEST(LintTool, IncludeCycleReportedOnceWithFullChain) {
  const LintRun run = run_lint("");
  EXPECT_TRUE(has_diag(run, "src/core/cycle_a.hpp:4: error:",
                       "include-cycle"))
      << run.output;
  // One diagnostic per cycle, not one per member file.
  EXPECT_EQ(count_rule(run, "include-cycle"), 1) << run.output;
  EXPECT_NE(run.output.find("src/core/cycle_a.hpp -> src/core/cycle_b.hpp "
                            "-> src/core/cycle_a.hpp"),
            std::string::npos)
      << run.output;
}

TEST(LintTool, LayerClosureDistinctFromDirectLayerRule) {
  const LintRun run = run_lint("");
  // bridge.hpp's direct hop into src/sim/ is the plain layer rule...
  EXPECT_TRUE(has_diag(run, "src/core/bridge.hpp:4: error:", "layer"))
      << run.output;
  // ...while indirect.cpp only reaches it transitively.
  EXPECT_TRUE(has_diag(run, "src/core/indirect.cpp:4: error:",
                       "layer-closure"))
      << run.output;
  EXPECT_EQ(count_rule(run, "layer-closure"), 1) << run.output;
  // The closure rule never double-reports direct edges.
  EXPECT_FALSE(has_diag(run, "src/core/indirect.cpp:4: error:", "layer"))
      << run.output;
}

TEST(LintTool, UnusedPublicHeaderFlagged) {
  const LintRun run = run_lint("");
  EXPECT_TRUE(has_diag(run, "src/core/orphan.hpp:1: error:", "unused-header"))
      << run.output;
  // Every other header is reachable (cycle pair include each other,
  // bridge/above/tsa_split are included) so exactly one hit.
  EXPECT_EQ(count_rule(run, "unused-header"), 1) << run.output;
}

TEST(LintTool, ResilienceBoundCrossChecksDeclaredFaultModels) {
  const LintRun run = run_lint("");
  // proto_drift.cpp: declared fail_stop, registers malicious.
  EXPECT_TRUE(has_diag(run, "src/core/proto_drift.cpp:9: error:",
                       "resilience-bound"))
      << run.output;
  // proto_undeclared.cpp: a registration site missing its declaration.
  EXPECT_TRUE(has_diag(run, "src/core/proto_undeclared.cpp:9: error:",
                       "resilience-bound"))
      << run.output;
  // proto_good.cpp matches its declaration and stays silent.
  EXPECT_EQ(count_rule(run, "resilience-bound"), 2) << run.output;
}

TEST(LintTool, CrossFileRulesSkippedOnPartialRuns) {
  // With an explicit path list the model is partial, so repo-level rules
  // (unused-header, include-cycle, resilience-bound, layer-closure) must
  // stay quiet rather than flag everything outside the slice.
  const LintRun run = run_lint("src/core/orphan.hpp");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_EQ(count_rule(run, "unused-header"), 0) << run.output;
  EXPECT_EQ(count_rule(run, "include-cycle"), 0) << run.output;
  EXPECT_EQ(count_rule(run, "resilience-bound"), 0) << run.output;
}

TEST(LintTool, GraphDotMatchesGoldenFixture) {
  const LintRun run = run_lint("--graph-dot");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  std::ifstream golden(std::string(RCP_LINT_FIXTURES) + "/graph.golden.dot");
  ASSERT_TRUE(golden.is_open());
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(run.output, want.str());
}

TEST(LintTool, ExpectMinFilesGuardsAgainstNarrowedTree) {
  const LintRun run = run_lint("--expect-min-files 1000");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("expected at least 1000 files"),
            std::string::npos)
      << run.output;
}

TEST(LintTool, ModelCacheRoundTripIsStable) {
  const std::string cache =
      (std::filesystem::temp_directory_path() / "rcp_lint_test_model.cache")
          .string();
  std::filesystem::remove(cache);
  const LintRun cold = run_lint("--model-cache " + cache);
  ASSERT_TRUE(std::filesystem::exists(cache));
  const LintRun warm = run_lint("--model-cache " + cache);
  // Identical diagnostics whether the model is rebuilt or replayed.
  EXPECT_EQ(cold.output, warm.output);
  EXPECT_EQ(cold.exit_code, warm.exit_code);
  std::filesystem::remove(cache);
}

TEST(LintTool, WholeFixtureTreeSummary) {
  const LintRun run = run_lint("");
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_EQ(count_rule(run, "layer"), 4) << run.output;
  EXPECT_EQ(count_rule(run, "layer-closure"), 1) << run.output;
  EXPECT_EQ(count_rule(run, "include-cycle"), 1) << run.output;
  EXPECT_EQ(count_rule(run, "unused-header"), 1) << run.output;
  EXPECT_EQ(count_rule(run, "thread-safety"), 5) << run.output;
  EXPECT_EQ(count_rule(run, "resilience-bound"), 2) << run.output;
  EXPECT_EQ(count_rule(run, "os-header"), 3) << run.output;
  EXPECT_EQ(count_rule(run, "os-exclusive"), 2) << run.output;
  EXPECT_EQ(count_rule(run, "determinism"), 5) << run.output;
  EXPECT_EQ(count_rule(run, "determinism-strict"), 2) << run.output;
  EXPECT_EQ(count_rule(run, "hot-alloc"), 8) << run.output;
  EXPECT_EQ(count_rule(run, "threshold"), 6) << run.output;
  EXPECT_EQ(count_rule(run, "unused-suppression"), 1) << run.output;
  EXPECT_EQ(count_rule(run, "bad-suppression"), 1) << run.output;
  EXPECT_NE(run.output.find("rcp-lint: 25 files, 42 error(s), 5 suppression(s) "
                            "(5 diagnostic(s) suppressed)"),
            std::string::npos)
      << run.output;
}

TEST(LintTool, MissingRulesFileIsUsageError) {
  const std::string cmd = std::string(RCP_LINT_BIN) + " --root " +
                          RCP_LINT_FIXTURES +
                          " --rules /nonexistent/rules.toml 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::array<char, 4096> buf{};
  std::string out;
  std::size_t got = 0;
  while ((got = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    out.append(buf.data(), got);
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(status >= 0 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2) << out;
}

}  // namespace
