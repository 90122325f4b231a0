// Golden-scenario round-trip: every rcp-plan-v1 file checked into
// tests/data/ (fuzzer-emitted, recorded by `scenario_runner --record`, or
// hand-written) parses, re-serializes byte-identically, and — when it has
// an `expect` line — replays to exactly that outcome.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/executor.hpp"
#include "fuzz/plan.hpp"

namespace rcp::fuzz {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::vector<fs::path> data_files(const std::string& extension) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(RCP_TEST_DATA_DIR)) {
    if (entry.is_regular_file() && entry.path().extension() == extension) {
      out.push_back(entry.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(GoldenData, DirectoryHoldsFuzzerEmittedPlans) {
  const auto plans = data_files(".plan");
  ASSERT_FALSE(plans.empty());
  // The fuzzer found and minimized a quorum-boundary schedule; it ships as
  // a replayable golden.
  bool quorum_boundary_golden = false;
  for (const fs::path& p : plans) {
    quorum_boundary_golden =
        quorum_boundary_golden ||
        p.filename().string().find("quorum-boundary") != std::string::npos;
  }
  EXPECT_TRUE(quorum_boundary_golden);
}

TEST(GoldenData, EveryPlanRoundTripsByteIdentically) {
  for (const fs::path& path : data_files(".plan")) {
    SCOPED_TRACE(path.filename().string());
    const std::string text = slurp(path);
    SchedulePlan plan;
    ASSERT_NO_THROW(plan = SchedulePlan::parse_string(text));
    ASSERT_NO_THROW(plan.validate());
    EXPECT_EQ(plan.serialize(), text);
  }
}

TEST(GoldenData, EveryPlanReplaysToItsEmbeddedExpectation) {
  for (const fs::path& path : data_files(".plan")) {
    SCOPED_TRACE(path.filename().string());
    const SchedulePlan plan = SchedulePlan::parse_string(slurp(path));
    const ExecResult r = execute(plan);
    EXPECT_TRUE(matches_expect(r, plan))
        << "status=" << status_token(r.status) << " steps=" << r.steps
        << " trace=" << r.trace_digest << " state=" << r.state_digest;
    EXPECT_TRUE(r.agreement);
  }
}

}  // namespace
}  // namespace rcp::fuzz
