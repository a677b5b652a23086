#include "engine/throttle.h"

#include <algorithm>
#include <cmath>

namespace muppet {

ThrottleGovernor::ThrottleGovernor(ThrottleOptions options, Clock* clock)
    : options_(options),
      clock_(clock != nullptr ? clock : SystemClock::Default()) {
  last_decay_ = clock_->Now();
}

void ThrottleGovernor::NoteOverflow() {
  signals_.Add();
  MutexLock lock(mutex_);
  delay_micros_ = std::min<double>(
      delay_micros_ + static_cast<double>(options_.step_micros),
      static_cast<double>(options_.max_delay_micros));
}

Timestamp ThrottleGovernor::CurrentDelayMicros() {
  Timestamp decayed = 0;
  {
    MutexLock lock(mutex_);
    const Timestamp now = clock_->Now();
    if (now > last_decay_ && delay_micros_ > 0.0) {
      const double halflives = static_cast<double>(now - last_decay_) /
                               static_cast<double>(kHalflifeMicros);
      delay_micros_ *= std::pow(0.5, halflives);
      if (delay_micros_ < 1.0) delay_micros_ = 0.0;
    }
    last_decay_ = now;
    decayed = static_cast<Timestamp>(delay_micros_);
  }
  return std::max(decayed, floor_micros_.load(std::memory_order_relaxed));
}

void ThrottleGovernor::SetFloorDelayMicros(Timestamp floor) {
  if (floor < 0) floor = 0;
  floor_micros_.store(std::min(floor, options_.max_delay_micros),
                      std::memory_order_relaxed);
}

void ThrottleGovernor::PaceSource() {
  const Timestamp delay = CurrentDelayMicros();
  if (delay > 0) clock_->SleepFor(delay);
}

}  // namespace muppet
