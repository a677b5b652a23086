// Fixture: a lock taken inside a callable. Inverted() holds kMid and
// hands Attempt() a lambda that acquires kLow (20 -> 10: inverted).
// Spawned() starts the same acquisition on a new thread, which does not
// hold kMid, and Stored() only keeps the lambda for later: neither is
// an edge.
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace muppet {

class Sender {
 public:
  template <typename Fn>
  void Attempt(Fn&& fn) {
    fn();
  }

  void Inverted() {
    MutexLock a(mid_);
    Attempt([&] { MutexLock b(low_); });
  }

  void Spawned() {
    MutexLock a(mid_);
    std::thread worker([this] { MutexLock b(low_); });
    worker.join();
  }

  void Stored() {
    MutexLock a(mid_);
    later_.push_back([this] { MutexLock b(low_); });
  }

 private:
  Mutex low_{LockLevel::kLow};
  Mutex mid_{LockLevel::kMid};
  std::vector<std::function<void()>> later_;
};

}  // namespace muppet
