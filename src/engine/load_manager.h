// Self-tuning load management: the control loop that turns the heat
// sketch (core/heat.h) and queue-depth gauges into runtime actions —
// permanent key splits for associative updaters (paper §5, Example 6,
// automated) and an occupancy-driven source-throttle floor
// (deadlock-free because only the source is paced, §5). Placement stays
// with the hash ring.
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
  // Depth/capacity of the fullest live queue.
  double max_queue_occupancy = 0.0;

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
  // New source-pacing floor.
  Timestamp floor_delay_micros = 0;
};

class LoadController {
 public:
  explicit LoadController(const LoadManagerOptions& options);

  // Ceiling on split keys (the SplitTable's capacity: splits are never
  // undone, so this bounds them for the engine's life).
  static constexpr size_t kMaxSplits = 16;
  // Shards installed per split key.
  static constexpr int kSplitShards = 8;
  // Queue-occupancy throttling. Integral gain: fraction of
  // kMaxFloorDelayMicros added to the pacing floor per unit of occupancy
  // error per tick (the target is half the hottest queue's capacity).
  static constexpr double kThrottleGain = 0.2;
  // Ceiling on the occupancy-driven pacing floor.
  static constexpr Timestamp kMaxFloorDelayMicros = 5 * kMicrosPerMilli;

  LoadActions Tick(const LoadSignals& signals);

  Timestamp floor_delay_micros() const {
    return static_cast<Timestamp>(floor_);
  }

 private:
  const LoadManagerOptions options_;
  // Integral throttle state, in micros (double so sub-micro gains
  // accumulate across ticks).
  double floor_ = 0.0;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_LOAD_MANAGER_H_
