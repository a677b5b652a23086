#include "common/logging.h"

#include <string>

#include "gtest/gtest.h"

namespace muppet {
namespace {

// RAII guard so a failing test cannot leave the global sink redirected.
class CaptureGuard {
 public:
  explicit CaptureGuard(std::string* sink) { SetLogCapture(sink); }
  ~CaptureGuard() { SetLogCapture(nullptr); }
};

TEST(LoggingTest, LevelFiltering) {
  std::string captured;
  CaptureGuard guard(&captured);
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kWarning);
  MUPPET_LOG(kDebug) << "quiet-debug";
  MUPPET_LOG(kInfo) << "quiet-info";
  MUPPET_LOG(kWarning) << "loud-warning";
  MUPPET_LOG(kError) << "loud-error";
  SetLogLevel(original);
  EXPECT_EQ(captured.find("quiet-debug"), std::string::npos);
  EXPECT_EQ(captured.find("quiet-info"), std::string::npos);
  EXPECT_NE(captured.find("WARN loud-warning"), std::string::npos);
  EXPECT_NE(captured.find("ERROR loud-error"), std::string::npos);
}

TEST(LoggingTest, OffSilencesEverything) {
  std::string captured;
  CaptureGuard guard(&captured);
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kOff);
  MUPPET_LOG(kError) << "should-not-appear";
  SetLogLevel(original);
  EXPECT_TRUE(captured.empty());
}

TEST(LoggingTest, StreamFormatting) {
  std::string captured;
  CaptureGuard guard(&captured);
  const LogLevel original = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  MUPPET_LOG(kInfo) << "value=" << 42 << " ratio=" << 1.5;
  SetLogLevel(original);
  EXPECT_NE(captured.find("value=42 ratio=1.5"), std::string::npos);
}

TEST(LoggingTest, CheckPassesOnTrueCondition) {
  MUPPET_CHECK(1 + 1 == 2) << "never evaluated";
  // Reaching here is the assertion.
  SUCCEED();
}

}  // namespace
}  // namespace muppet
