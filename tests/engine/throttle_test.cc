#include "engine/throttle.h"

#include "gtest/gtest.h"

namespace muppet {
namespace {

ThrottleOptions TestOptions() {
  ThrottleOptions options;
  options.step_micros = 100;
  options.max_delay_micros = 1000;
  return options;
}

constexpr Timestamp kHalflife = ThrottleGovernor::kHalflifeMicros;

TEST(ThrottleTest, NoDelayWithoutSignals) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  EXPECT_EQ(governor.CurrentDelayMicros(), 0);
}

TEST(ThrottleTest, SignalsAccumulateDelay) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  governor.NoteOverflow();
  governor.NoteOverflow();
  governor.NoteOverflow();
  EXPECT_EQ(governor.CurrentDelayMicros(), 300);
  EXPECT_EQ(governor.overflow_signals(), 3);
}

TEST(ThrottleTest, DelayCappedAtMax) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  for (int i = 0; i < 100; ++i) governor.NoteOverflow();
  EXPECT_EQ(governor.CurrentDelayMicros(), 1000);
}

TEST(ThrottleTest, DelayDecaysWithHalflife) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  for (int i = 0; i < 8; ++i) governor.NoteOverflow();  // 800us
  EXPECT_EQ(governor.CurrentDelayMicros(), 800);
  clock.Advance(kHalflife);
  const Timestamp decayed = governor.CurrentDelayMicros();
  EXPECT_NEAR(static_cast<double>(decayed), 400.0, 40.0);
  clock.Advance(10 * kHalflife);
  EXPECT_EQ(governor.CurrentDelayMicros(), 0);
}

TEST(ThrottleTest, PaceSourceAdvancesClockByDelay) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  governor.PaceSource();
  EXPECT_EQ(clock.Now(), 0) << "no pressure, no pacing";
  for (int i = 0; i < 5; ++i) governor.NoteOverflow();
  const Timestamp before = clock.Now();
  governor.PaceSource();
  EXPECT_GT(clock.Now(), before);
}

TEST(ThrottleTest, PressureReturnsAfterNewSignals) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  governor.NoteOverflow();
  clock.Advance(100 * kHalflife);
  EXPECT_EQ(governor.CurrentDelayMicros(), 0);
  governor.NoteOverflow();
  EXPECT_GT(governor.CurrentDelayMicros(), 0);
}

TEST(ThrottleTest, ZeroElapsedReadsAreStable) {
  // Two reads at the same instant must agree: decay applies only to
  // elapsed time, and repeated polling (the /metrics gauge calls
  // CurrentDelayMicros too) must not itself erode the delay.
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  for (int i = 0; i < 4; ++i) governor.NoteOverflow();
  const Timestamp first = governor.CurrentDelayMicros();
  EXPECT_EQ(first, 400);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(governor.CurrentDelayMicros(), first);
  }
}

TEST(ThrottleTest, HugeForwardClockJumpDecaysCleanlyToZero) {
  // An NTP step or a VM pause can make hours pass between reads. The
  // exponent gets enormous; the result must be a clean zero, not a NaN,
  // negative, or wrapped delay.
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  for (int i = 0; i < 10; ++i) governor.NoteOverflow();
  clock.Advance(3600LL * 1000 * 1000);  // one hour: 72,000 halflives
  EXPECT_EQ(governor.CurrentDelayMicros(), 0);
  // Pressure still accumulates normally afterwards.
  governor.NoteOverflow();
  EXPECT_EQ(governor.CurrentDelayMicros(), 100);
}

TEST(ThrottleTest, BackwardClockJumpNeverInflatesDelay) {
  // now < last_decay (clock stepped back): no decay happens, but the
  // delay must not grow either — pow(0.5, negative) would double it.
  SimulatedClock clock;
  clock.Advance(10 * kHalflife);
  ThrottleGovernor governor(TestOptions(), &clock);
  for (int i = 0; i < 4; ++i) governor.NoteOverflow();
  clock.Set(5 * kHalflife);
  EXPECT_EQ(governor.CurrentDelayMicros(), 400);
  // Once the clock moves forward again, decay resumes from the rewound
  // reference point.
  clock.Advance(kHalflife);  // one halflife past the rewound instant
  EXPECT_NEAR(static_cast<double>(governor.CurrentDelayMicros()), 200.0, 20.0);
}

TEST(ThrottleTest, FloorClampsCurrentDelayFromBelow) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);
  governor.SetFloorDelayMicros(250);
  // No overflow pressure at all: the floor alone paces the source.
  EXPECT_EQ(governor.CurrentDelayMicros(), 250);
  EXPECT_EQ(governor.floor_delay_micros(), 250);

  // Overflow pressure above the floor wins...
  for (int i = 0; i < 4; ++i) governor.NoteOverflow();
  EXPECT_EQ(governor.CurrentDelayMicros(), 400);
  // ...and once it decays below the floor, the floor takes over again.
  clock.Advance(10 * kHalflife);
  EXPECT_EQ(governor.CurrentDelayMicros(), 250);

  // The floor does not decay: only the controller moves it.
  clock.Advance(100 * kHalflife);
  EXPECT_EQ(governor.CurrentDelayMicros(), 250);
  governor.SetFloorDelayMicros(0);
  EXPECT_EQ(governor.CurrentDelayMicros(), 0);
}

TEST(ThrottleTest, FloorClampedToMaxAndNonNegative) {
  SimulatedClock clock;
  ThrottleGovernor governor(TestOptions(), &clock);  // max_delay 1000
  governor.SetFloorDelayMicros(999999);
  EXPECT_EQ(governor.floor_delay_micros(), 1000);
  governor.SetFloorDelayMicros(-7);
  EXPECT_EQ(governor.floor_delay_micros(), 0);
}

}  // namespace
}  // namespace muppet
