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

  auto split_for = [&](int32_t fid, const Bytes& key) {
    for (const auto& active : signals.active_splits) {
      if (active.function_id == fid && active.key == key) return &active;
    }
    return static_cast<const LoadSignals::ActiveSplit*>(nullptr);
  };

  // Splits: hot enough, not already split, room in the table.
  size_t live = signals.active_splits.size();
  for (const HeatReading& reading : signals.top) {
    if (live >= kMaxSplits) break;
    const double fraction = static_cast<double>(reading.count) / total;
    if (fraction < options_.split_heat_fraction) break;  // top is sorted
    if (split_for(reading.function_id, reading.key) != nullptr) continue;
    actions.splits.push_back(LoadActions::Split{
        reading.function_id, reading.key, options_.split_shards});
    ++live;
  }

  // Merges: split keys whose share of recent traffic stayed below the
  // merge threshold (including keys that left the sketch entirely) for
  // merge_cool_ticks consecutive ticks — one low tick is sampling noise.
  std::map<std::pair<int32_t, Bytes>, int> cool_next;
  for (const auto& active : signals.active_splits) {
    if (active.draining) continue;  // merge already in progress
    int64_t count = 0;
    for (const HeatReading& reading : signals.top) {
      if (reading.function_id == active.function_id &&
          reading.key == active.key) {
        count = reading.count;
        break;
      }
    }
    const double fraction = static_cast<double>(count) / total;
    if (fraction >= options_.merge_heat_fraction) continue;
    const std::pair<int32_t, Bytes> id{active.function_id, active.key};
    auto it = cool_.find(id);
    const int cool = (it != cool_.end() ? it->second : 0) + 1;
    if (cool >= options_.merge_cool_ticks) {
      actions.merges.emplace_back(active.function_id, active.key);
    } else {
      cool_next[id] = cool;
    }
  }
  // Entries absent from cool_next reset to zero: either the key warmed
  // back up this tick, its merge just began, or the split is gone.
  cool_ = std::move(cool_next);

  return actions;
}

}  // namespace muppet
