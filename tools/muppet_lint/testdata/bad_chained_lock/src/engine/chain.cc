// Fixture: a lock taken behind a member chain. Writer::Inverted() holds
// kMid and calls machine->log->Append(), which acquires kLow (20 -> 10:
// inverted). Two classes define Append(), so only typing the chain
// (the parameter `machine`, then its `log` member) finds the callee.
#include <memory>

#include "common/sync.h"

namespace muppet {

class Log {
 public:
  void Append() { MutexLock a(mutex_); }

 private:
  Mutex mutex_{LockLevel::kLow};
};

class Sink {
 public:
  void Append() {}
};

struct Machine {
  std::unique_ptr<Log> log;
  Sink sink;
};

class Writer {
 public:
  void Inverted(Machine* machine) {
    MutexLock a(mid_);
    machine->log->Append();
  }

  void Unlocked(Machine* machine) {
    MutexLock a(mid_);
    machine->sink.Append();
  }

 private:
  Mutex mid_{LockLevel::kMid};
};

}  // namespace muppet
