#include "engine/load_manager.h"

#include <algorithm>

namespace muppet {

LoadController::LoadController(const LoadManagerOptions& options)
    : options_(options) {}

LoadActions LoadController::Tick(const LoadSignals& signals) const {
  LoadActions actions;
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
