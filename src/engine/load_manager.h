// Self-tuning load management: the control loop that turns the heat
// sketch (core/heat.h) into permanent key splits for associative updaters
// (paper §5, Example 6, automated). Placement stays with the hash ring,
// and pacing the source is the kThrottle overflow policy's job
// (engine/overflow.h).
//
// The decision logic lives in LoadController, a pure object with no
// threads or engine references: the engine's load-manager tick gathers a
// LoadSignals snapshot, calls Tick(), and applies the returned
// LoadActions. That keeps every policy decision unit-testable without a
// cluster.
#ifndef MUPPET_ENGINE_LOAD_MANAGER_H_
#define MUPPET_ENGINE_LOAD_MANAGER_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/clock.h"
#include "core/heat.h"

namespace muppet {

struct LoadManagerOptions {
  // Master switch; everything below is inert when false.
  bool enabled = false;

  // Control-loop period.
  Timestamp tick_micros = 20 * kMicrosPerMilli;

  // Heat sketch shape (per machine).
  HeatTrackerOptions heat;
  // Per-tick multiplicative aging of the sketch, so heat reflects recent
  // traffic. 1.0 disables aging.
  double heat_decay = 0.8;

  // --- Key splitting -------------------------------------------------
  // Split a key once it draws at least this fraction of sampled arrivals
  // (and the updater is declared associative/commutative). A split lasts
  // until the engine stops.
  double split_heat_fraction = 0.20;
  // Ignore heat readings until this many samples accumulated.
  int64_t min_samples = 64;
};

// One machine-agnostic heat reading: (function, key) and its decayed
// sampled count.
struct HeatReading {
  int32_t function_id = -1;
  Bytes key;
  int64_t count = 0;
};

// Snapshot the engine hands the controller each tick.
struct LoadSignals {
  // Decayed total of sampled arrivals across all machines.
  int64_t sampled_total = 0;
  // Hottest (function, key) pairs, aggregated across machines.
  std::vector<HeatReading> top;

  // Keys already split, as (function, key).
  std::vector<std::pair<int32_t, Bytes>> active_splits;
};

struct LoadActions {
  struct Split {
    int32_t function_id = -1;
    Bytes key;
  };
  // Keys to split now, into kSplitShards shards each (engine filters for
  // associativity).
  std::vector<Split> splits;
};

class LoadController {
 public:
  explicit LoadController(const LoadManagerOptions& options);

  // Ceiling on split keys (the SplitTable's capacity: splits are never
  // undone, so this bounds them for the engine's life).
  static constexpr size_t kMaxSplits = 16;
  // Shards installed per split key.
  static constexpr int kSplitShards = 8;

  LoadActions Tick(const LoadSignals& signals) const;

 private:
  const LoadManagerOptions options_;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_LOAD_MANAGER_H_
