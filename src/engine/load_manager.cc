#include "engine/load_manager.h"

#include <algorithm>

namespace muppet {

LoadController::LoadController(const LoadManagerOptions& options)
    : options_(options) {}

LoadActions LoadController::Tick(const LoadSignals& signals) {
  LoadActions actions;

  // Integral action on the hottest queue's occupancy: above target the
  // source pacing floor ramps up, below target it bleeds off. Clamped to
  // [0, max]; the error term is a fraction so the step size scales with
  // how far occupancy is from target, which is as PID-ish as a source-only
  // throttle needs to be (there is no actuator to overshoot — pacing just
  // slows Publish()).
  constexpr double kTargetOccupancy = 0.5;
  const double error = signals.max_queue_occupancy - kTargetOccupancy;
  floor_ += error * kThrottleGain * static_cast<double>(kMaxFloorDelayMicros);
  floor_ = std::clamp(floor_, 0.0, static_cast<double>(kMaxFloorDelayMicros));
  actions.floor_delay_micros = static_cast<Timestamp>(floor_);

  if (signals.sampled_total < options_.min_samples) return actions;
  const double total = static_cast<double>(signals.sampled_total);

  // Splits: hot enough, not already split, room in the table.
  size_t live = signals.active_splits.size();
  for (const HeatReading& reading : signals.top) {
    if (live >= kMaxSplits) break;
    const double fraction = static_cast<double>(reading.count) / total;
    if (fraction < options_.split_heat_fraction) break;  // top is sorted
    if (std::find(signals.active_splits.begin(), signals.active_splits.end(),
                  std::make_pair(reading.function_id, reading.key)) !=
        signals.active_splits.end()) {
      continue;
    }
    actions.splits.push_back(
        LoadActions::Split{reading.function_id, reading.key});
    ++live;
  }

  return actions;
}

}  // namespace muppet
