// The Muppet master (§4.1, §4.3). Deliberately *off* the data path: "Muppet
// lets the workers pass events directly to one another without going
// through any master. (The master in Muppet is used for handling
// failures.)" A worker that cannot contact a machine reports it here. The
// paper's master broadcasts the failure so every worker updates its
// failed-machine list; here every engine in the process shares one Master,
// so its set *is* that list, and the shared hash ring reroutes around it.
#ifndef MUPPET_ENGINE_MASTER_H_
#define MUPPET_ENGINE_MASTER_H_

#include <atomic>
#include <set>

#include "common/metrics.h"
#include "common/sync.h"
#include "net/transport.h"

namespace muppet {

class Master {
 public:
  Master() = default;

  Master(const Master&) = delete;
  Master& operator=(const Master&) = delete;

  // Report a machine as failed. Idempotent. Returns true if this was the
  // first report.
  bool ReportFailure(MachineId machine);

  // Bring a machine back (test/ops path; the paper's Muppet cannot change
  // cluster membership on the fly, §5 — we keep the same restriction for
  // production workers and only use this for store-level tests and the
  // chaos harness's scripted restarts). Idempotent. Returns true if the
  // machine was failed.
  //
  // Durable recovery ordering (DESIGN.md §12): ClearFailure is the point
  // where the ring starts routing to the machine again — so an engine must
  // finish restoring the machine's slates (changelog replay) BEFORE
  // calling it. BeginRecovery marks the intermediate state: the machine is
  // coming back (its transport endpoint may be live for replay traffic)
  // but it is still failed for routing purposes until ClearFailure.
  bool ClearFailure(MachineId machine);

  // Mark a failed machine as recovering. The machine stays in failed()
  // (unroutable). Returns false if the machine is not failed or already
  // recovering.
  bool BeginRecovery(MachineId machine);

  bool IsRecovering(MachineId machine) const MUPPET_EXCLUDES(mutex_);

  std::set<MachineId> failed() const MUPPET_EXCLUDES(mutex_);
  bool IsFailed(MachineId machine) const MUPPET_EXCLUDES(mutex_);
  // Lock-free emptiness check, so routing skips the failed-set copy while
  // no machine is failed (Engine::RouteFailedSet).
  bool AnyFailed() const {
    return num_failed_.load(std::memory_order_acquire) > 0;
  }
  int64_t failures_reported() const { return failures_reported_.Get(); }

  // A leaf: nothing is acquired under the master mutex.
  static constexpr LockLevel kLockLevel = LockLevel::kMaster;

 private:
  mutable Mutex mutex_{kLockLevel};
  std::set<MachineId> failed_ MUPPET_GUARDED_BY(mutex_);
  std::set<MachineId> recovering_ MUPPET_GUARDED_BY(mutex_);
  // failed_.size(), stored under mutex_ on every change.
  std::atomic<size_t> num_failed_{0};
  Counter failures_reported_;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_MASTER_H_
