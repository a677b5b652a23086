// Fixture: a lock taken through an object handed to a virtual hook.
// Engine::Inverted() holds kMid and hands an Operator (whose Run has no
// body the resolver can follow) a Utils whose Emit() acquires kLow
// (20 -> 10: inverted). Engine::Inspected() hands the same object to a
// function the resolver does follow, which calls none of its methods:
// no edge.
#include "common/sync.h"

namespace muppet {

class Engine;

class Utils {
 public:
  explicit Utils(Engine* engine) : engine_(engine) {}
  void Emit();

 private:
  Engine* engine_;
};

class Operator {
 public:
  virtual ~Operator() = default;
  virtual void Run(Utils& utils) = 0;
};

void Inspect(Utils& utils) { (void)utils; }

class Engine {
 public:
  void TakeLow() { MutexLock b(low_); }

  void Inverted() {
    MutexLock a(mid_);
    Utils utils(this);
    op_->Run(utils);
  }

  void Inspected() {
    MutexLock a(mid_);
    Utils utils(this);
    Inspect(utils);
  }

 private:
  Mutex low_{LockLevel::kLow};
  Mutex mid_{LockLevel::kMid};
  Operator* op_ = nullptr;
};

void Utils::Emit() { engine_->TakeLow(); }

}  // namespace muppet
