#include "engine/master.h"

#include "common/logging.h"

namespace muppet {

bool Master::ReportFailure(MachineId machine) {
  {
    MutexLock lock(mutex_);
    recovering_.erase(machine);  // a re-crash aborts any recovery in flight
    if (!failed_.insert(machine).second) return false;  // already known
    num_failed_.store(failed_.size(), std::memory_order_release);
  }
  failures_reported_.Add();
  MUPPET_LOG(kWarning) << "master: machine " << machine << " reported failed";
  return true;
}

bool Master::ClearFailure(MachineId machine) {
  {
    MutexLock lock(mutex_);
    if (failed_.erase(machine) == 0) return false;  // was not failed
    recovering_.erase(machine);
    num_failed_.store(failed_.size(), std::memory_order_release);
  }
  MUPPET_LOG(kInfo) << "master: machine " << machine << " recovered";
  return true;
}

bool Master::BeginRecovery(MachineId machine) {
  MutexLock lock(mutex_);
  if (failed_.count(machine) == 0) return false;
  return recovering_.insert(machine).second;
}

bool Master::IsRecovering(MachineId machine) const {
  MutexLock lock(mutex_);
  return recovering_.count(machine) > 0;
}

std::set<MachineId> Master::failed() const {
  MutexLock lock(mutex_);
  return failed_;
}

bool Master::IsFailed(MachineId machine) const {
  MutexLock lock(mutex_);
  return failed_.count(machine) > 0;
}

}  // namespace muppet
