// Shared test helpers.
#ifndef MUPPET_TESTS_TEST_UTIL_H_
#define MUPPET_TESTS_TEST_UTIL_H_

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <filesystem>
#include <random>
#include <string>

#include "common/status.h"
#include "gtest/gtest.h"

namespace muppet {
namespace testing {

// Why HeapInUse() cannot measure this build's allocations, or nullptr if
// it can: mallinfo2 is glibc's, and sanitizer runtimes replace malloc.
inline const char* HeapAccountingUnavailable() {
#if !defined(__GLIBC__)
  return "mallinfo2 is glibc-only";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer runtimes interpose malloc";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer runtimes interpose malloc";
#else
  return nullptr;
#endif
#else
  return nullptr;
#endif
}

// Heap bytes in use, mmapped blocks (a large bucket array) included; 0
// without glibc.
inline size_t HeapInUse() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

// Skips the calling test where HeapInUse() cannot be trusted.
#define MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING()                        \
  do {                                                               \
    if (const char* _why =                                           \
            ::muppet::testing::HeapAccountingUnavailable()) {        \
      GTEST_SKIP() << _why;                                          \
    }                                                                \
  } while (0)

// A unique temporary directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    const auto base = std::filesystem::temp_directory_path();
    std::random_device rd;
    for (int attempt = 0; attempt < 100; ++attempt) {
      auto candidate = base / ("muppet_test_" + std::to_string(rd()) + "_" +
                               std::to_string(attempt));
      std::error_code ec;
      if (std::filesystem::create_directory(candidate, ec)) {
        path_ = candidate.string();
        return;
      }
    }
    ADD_FAILURE() << "could not create temp dir";
  }

  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  return r.status();
}

// Copy the Status inside the full expression: binding `const auto&` to
// StatusOf(expr) would dangle when `expr` is `result.status()` on a
// temporary Result (the reference outlives the temporary's member).
#define ASSERT_OK(expr)                                             \
  do {                                                              \
    const ::muppet::Status _status =                                \
        ::muppet::testing::StatusOf((expr));                        \
    ASSERT_TRUE(_status.ok()) << _status.ToString();                \
  } while (0)

#define EXPECT_OK(expr)                                             \
  do {                                                              \
    const ::muppet::Status _status =                                \
        ::muppet::testing::StatusOf((expr));                        \
    EXPECT_TRUE(_status.ok()) << _status.ToString();                \
  } while (0)

}  // namespace testing
}  // namespace muppet

#endif  // MUPPET_TESTS_TEST_UTIL_H_
