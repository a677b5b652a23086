// Fixture: minimal sync surface mirroring src/common/sync.h.
#ifndef FIXTURE_COMMON_SYNC_H_
#define FIXTURE_COMMON_SYNC_H_

namespace muppet {

enum class LockLevel : int {
  kUnordered = 0,
  kLow = 10,
  kMid = 20,
  kHigh = 30,
};

class Mutex {
 public:
  explicit Mutex(LockLevel level) : level_(level) {}

 private:
  LockLevel level_;
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& mu) {}
};

}  // namespace muppet

#endif  // FIXTURE_COMMON_SYNC_H_
