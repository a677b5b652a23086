#include "core/hash_ring.h"

#include <algorithm>

#include "common/hash.h"

namespace muppet {

HashRing::HashRing(int vnodes, uint64_t seed)
    : vnodes_(vnodes < 1 ? 1 : vnodes), seed_(seed) {}

void HashRing::AddWorker(const std::string& function, WorkerRef worker) {
  FunctionRing& ring = rings_[function];
  if (!ring.workers.insert(worker).second) return;  // already present
  for (int v = 0; v < vnodes_; ++v) {
    const uint64_t h =
        Mix64(seed_ ^ Fnv1a64(function) ^
              (static_cast<uint64_t>(static_cast<uint32_t>(worker.machine))
               << 32) ^
              (static_cast<uint64_t>(static_cast<uint32_t>(worker.slot))
               << 8) ^
              static_cast<uint64_t>(v));
    ring.points.emplace_back(h, worker);
  }
  std::sort(ring.points.begin(), ring.points.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
}

Result<WorkerRef> HashRing::RouteNth(const std::string& function,
                                     BytesView key,
                                     const std::set<MachineId>& failed,
                                     int nth) const {
  auto it = rings_.find(function);
  if (it == rings_.end()) {
    return Status::NotFound("ring: unknown function '" + function + "'");
  }
  const FunctionRing& ring = it->second;
  if (ring.points.empty()) {
    return Status::Unavailable("ring: no workers for '" + function + "'");
  }

  const uint64_t h = SeededHash(key, Fnv1a64(function));
  // First point at or after h.
  size_t pos = static_cast<size_t>(
      std::lower_bound(ring.points.begin(), ring.points.end(),
                       std::make_pair(h, WorkerRef{}),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       }) -
      ring.points.begin());

  std::vector<WorkerRef> seen;
  for (size_t walked = 0; walked < ring.points.size(); ++walked) {
    const auto& [hash, worker] = ring.points[(pos + walked) %
                                             ring.points.size()];
    if (failed.count(worker.machine) > 0) continue;
    if (std::find(seen.begin(), seen.end(), worker) != seen.end()) continue;
    if (static_cast<int>(seen.size()) == nth) return worker;
    seen.push_back(worker);
  }
  if (!seen.empty()) {
    // Fewer than nth+1 distinct survivors: wrap to the primary.
    return seen.front();
  }
  return Status::Unavailable("ring: all workers of '" + function +
                             "' are on failed machines");
}

Result<WorkerRef> HashRing::Route(const std::string& function, BytesView key,
                                  const std::set<MachineId>& failed) const {
  return RouteNth(function, key, failed, 0);
}

Result<WorkerRef> HashRing::RouteSecondary(
    const std::string& function, BytesView key,
    const std::set<MachineId>& failed) const {
  return RouteNth(function, key, failed, 1);
}

std::vector<WorkerRef> HashRing::WorkersOf(const std::string& function) const {
  auto it = rings_.find(function);
  if (it == rings_.end()) return {};
  return std::vector<WorkerRef>(it->second.workers.begin(),
                                it->second.workers.end());
}

std::map<MachineId, int> HashRing::OwnershipCounts(
    const std::string& function) const {
  std::map<MachineId, int> out;
  auto it = rings_.find(function);
  if (it == rings_.end()) return out;
  for (const auto& [hash, worker] : it->second.points) {
    ++out[worker.machine];
  }
  return out;
}

std::vector<std::string> HashRing::Functions() const {
  std::vector<std::string> out;
  out.reserve(rings_.size());
  for (const auto& [name, ring] : rings_) out.push_back(name);
  return out;
}

}  // namespace muppet
