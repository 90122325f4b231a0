// ProgressReporter: the status line it leaves on its stream. The stream is
// read only after the reporter is destroyed, since its thread writes it.
#include "runtime/progress.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>

#include "runtime/thread_control.hpp"

namespace rcp::runtime {
namespace {

std::string report(ThreadControl& control) {
  std::ostringstream out;
  {
    const ProgressReporter reporter(control, out, std::chrono::milliseconds(1));
    // Long enough for the reporter thread to print a few periodic lines.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return out.str();
}

TEST(ProgressReporter, ShowsCompletedTotalAndPercent) {
  ThreadControl control;
  control.begin(10);
  for (int i = 0; i < 10; ++i) {
    control.note_completed();
  }
  const std::string text = report(control);
  ASSERT_FALSE(text.empty());
  EXPECT_NE(text.find("10/10"), std::string::npos) << text;
  EXPECT_NE(text.find("100.0%"), std::string::npos) << text;
  EXPECT_EQ(text.back(), '\n') << "the destructor finishes the line";
}

TEST(ProgressReporter, PrintsNothingWithoutATotal) {
  ThreadControl control;
  EXPECT_EQ(report(control), "");
}

}  // namespace
}  // namespace rcp::runtime
