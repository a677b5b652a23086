// Source throttling (§5): "when Muppet detects a hotspot, it can slow down
// the pace at which it consumes events from its input streams ... to allow
// ... the hotspot updater ... to catch up." Throttling is safe only at the
// *input* streams: no operator may publish into them (enforced by
// AppConfig), which is exactly why the paper's emit-loop deadlock (an
// updater blocked emitting 10,000 events into its own input) cannot arise
// at the source. The governor turns overflow signals into a publish delay
// that decays as pressure subsides.
#ifndef MUPPET_ENGINE_THROTTLE_H_
#define MUPPET_ENGINE_THROTTLE_H_

#include <atomic>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/sync.h"

namespace muppet {

struct ThrottleOptions {
  // Delay added per overflow signal.
  Timestamp step_micros = 200;
  // Ceiling on the publish delay.
  Timestamp max_delay_micros = 20 * kMicrosPerMilli;
};

class ThrottleGovernor {
 public:
  explicit ThrottleGovernor(ThrottleOptions options = {},
                            Clock* clock = nullptr);

  ThrottleGovernor(const ThrottleGovernor&) = delete;
  ThrottleGovernor& operator=(const ThrottleGovernor&) = delete;

  // The delay halves every kHalflifeMicros without new signals.
  static constexpr Timestamp kHalflifeMicros = 50 * kMicrosPerMilli;

  // A queue somewhere declined an event: increase pressure.
  void NoteOverflow();

  // Delay the source should insert before its next publish: the decayed
  // overflow delay or the load-manager floor, whichever is larger.
  Timestamp CurrentDelayMicros();

  // Convenience for sources: sleep for the current delay (no-op at zero).
  void PaceSource();

  // Occupancy-driven pacing floor, set by the load-manager control loop
  // (integral action on queue depth). Unlike overflow signals it does not
  // decay; the controller moves it up and down each tick. Still applied
  // only at the source, so the paper's deadlock-freedom argument holds.
  void SetFloorDelayMicros(Timestamp floor);
  Timestamp floor_delay_micros() const {
    return floor_micros_.load(std::memory_order_relaxed);
  }

  int64_t overflow_signals() const { return signals_.Get(); }

  // NoteOverflow() runs under a slate-stripe lock on the 2.0 dispatch
  // path, so the governor sits below the stripes in the hierarchy.
  static constexpr LockLevel kLockLevel = LockLevel::kThrottle;

 private:
  ThrottleOptions options_;
  Clock* clock_;
  Mutex mutex_{kLockLevel};
  double delay_micros_ MUPPET_GUARDED_BY(mutex_) = 0.0;
  Timestamp last_decay_ MUPPET_GUARDED_BY(mutex_) = 0;
  std::atomic<Timestamp> floor_micros_{0};
  Counter signals_;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_THROTTLE_H_
