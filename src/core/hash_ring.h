// Worker-routing hash ring (paper §4.1, §4.3). Every worker carries the
// same ring, so after producing an event any worker "can instantly
// calculate which worker the event hashes to" from <event key, destination
// function> — no master on the data path. On machine failure the ring
// deterministically reroutes the failed workers' keys to surviving workers
// ("Since all workers use the same hash ring, from then on all events with
// the same key will be routed to worker C instead of the (now failed)
// worker B").
#ifndef MUPPET_CORE_HASH_RING_H_
#define MUPPET_CORE_HASH_RING_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "net/transport.h"

namespace muppet {

// Identifies a worker: a machine and a per-machine worker slot.
struct WorkerRef {
  MachineId machine = kInvalidMachine;
  int32_t slot = 0;

  friend bool operator==(const WorkerRef& a, const WorkerRef& b) {
    return a.machine == b.machine && a.slot == b.slot;
  }
  friend bool operator<(const WorkerRef& a, const WorkerRef& b) {
    if (a.machine != b.machine) return a.machine < b.machine;
    return a.slot < b.slot;
  }
};

class HashRing {
 public:
  // `vnodes` controls placement smoothness; identical arguments produce an
  // identical ring on every machine (determinism is the whole point).
  explicit HashRing(int vnodes = 128, uint64_t seed = 0x9173ull);

  // Register a worker as running `function`. A function's events route
  // only among that function's workers (in Muppet 1.0 each worker runs
  // exactly one function).
  void AddWorker(const std::string& function, WorkerRef worker);

  // Route <key, function> to a worker, skipping workers on machines in
  // `failed`. Unavailable when the function has no surviving workers;
  // NotFound when the function is unknown.
  Result<WorkerRef> Route(const std::string& function, BytesView key,
                          const std::set<MachineId>& failed) const;

  // Vnode points of `function` owned per machine — the /statusz view of
  // how key space is spread across the cluster. Empty map for unknown
  // functions.
  std::map<MachineId, int> OwnershipCounts(const std::string& function) const;

  // Names of all functions with registered workers (sorted).
  std::vector<std::string> Functions() const;

 private:
  struct FunctionRing {
    // Sorted (hash, worker) circle.
    std::vector<std::pair<uint64_t, WorkerRef>> points;
    std::set<WorkerRef> workers;
  };

  int vnodes_;
  uint64_t seed_;
  std::map<std::string, FunctionRing> rings_;
};

}  // namespace muppet

#endif  // MUPPET_CORE_HASH_RING_H_
