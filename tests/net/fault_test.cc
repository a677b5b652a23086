// Per-primitive tests for the scripted fault injector and its transport
// integration: deterministic drops, duplicate delivery, bounded reorder
// windows, partitions that heal, scripted actions popped exactly once,
// and local sends that bypass the plan.
#include "net/fault.h"

#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/transport.h"
#include "tests/net/transport_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using testing::SendOne;

// A transport wired to a fault plan on a simulated clock, with machine 1
// (and optionally more) recording each delivered frame and its message
// count in arrival order.
struct FaultFixture {
  explicit FaultFixture(FaultPlan plan, int machines = 2)
      : injector(std::move(plan), &clock) {
    TransportOptions options;
    options.faults = &injector;
    options.on_async_loss = [this](int64_t n) { async_lost += n; };
    options.on_extra_delivery = [this](int64_t n) { extra_delivered += n; };
    transport = std::make_unique<InMemoryTransport>(options);
    for (MachineId m = 0; m < machines; ++m) {
      EXPECT_TRUE(transport
                      ->RegisterMachine(m,
                                        [this, m](MachineId, BytesView frame,
                                                  size_t count,
                                                  size_t* accepted) {
                                          received[m].emplace_back(frame);
                                          counts[m].push_back(count);
                                          *accepted = count;
                                          return Status::OK();
                                        })
                      .ok());
    }
  }

  SimulatedClock clock{0};
  FaultInjector injector;
  std::unique_ptr<InMemoryTransport> transport;
  std::map<MachineId, std::vector<std::string>> received;
  std::map<MachineId, std::vector<size_t>> counts;
  int64_t async_lost = 0;
  int64_t extra_delivered = 0;
};

TEST(FaultPlanTest, ToStringListsRulesAndSortedActions) {
  FaultPlan plan;
  plan.seed = 42;
  plan.Drop(0, 1, 0.25).RestartAt(300, 2).CrashAt(100, 2).PartitionAt(200, 0,
                                                                      1);
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("seed=42"), std::string::npos);
  EXPECT_NE(s.find("drop=0.25"), std::string::npos);
  // Actions print in timeline order regardless of insertion order.
  const size_t crash = s.find("t=100 crash machine 2");
  const size_t part = s.find("t=200 partition 0 <-/-> 1");
  const size_t restart = s.find("t=300 restart machine 2");
  ASSERT_NE(crash, std::string::npos);
  ASSERT_NE(part, std::string::npos);
  ASSERT_NE(restart, std::string::npos);
  EXPECT_LT(crash, part);
  EXPECT_LT(part, restart);
  EXPECT_NE(FaultPlan().ToString().find("(no faults)"), std::string::npos);
}

TEST(FaultInjectorTest, DropDecisionsAreContentAddressedAndReproducible) {
  FaultPlan plan;
  plan.seed = 7;
  plan.Drop(0, 1, 0.5);

  auto run = [&plan]() {
    SimulatedClock clock(0);
    FaultInjector inj(plan, &clock);
    std::vector<bool> dropped;
    for (int i = 0; i < 64; ++i) {
      FaultDecision d = inj.OnMessage(0, 1, "payload", 1000 + i);
      dropped.push_back(d.verdict == FaultDecision::Verdict::kDrop);
    }
    return dropped;
  };

  const std::vector<bool> first = run();
  EXPECT_EQ(first, run());  // bit-identical across runs
  // And the probability actually bites both ways.
  int drops = 0;
  for (bool b : first) drops += b ? 1 : 0;
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, 64);
}

TEST(FaultInjectorTest, OccurrenceIndexDistinguishesRepeatedContent) {
  FaultPlan plan;
  plan.seed = 9;
  plan.Drop(0, 1, 0.5);

  auto run = [&plan]() {
    SimulatedClock clock(0);
    FaultInjector inj(plan, &clock);
    std::vector<bool> dropped;
    for (int i = 0; i < 64; ++i) {
      // Same signature every time: only the occurrence index varies.
      FaultDecision d = inj.OnMessage(0, 1, "same", 77);
      dropped.push_back(d.verdict == FaultDecision::Verdict::kDrop);
    }
    return dropped;
  };

  const std::vector<bool> first = run();
  EXPECT_EQ(first, run());
  int drops = 0;
  for (bool b : first) drops += b ? 1 : 0;
  EXPECT_GT(drops, 0);   // not all delivered...
  EXPECT_LT(drops, 64);  // ...and not all dropped: occurrences roll apart
}

TEST(FaultInjectorTest, RulesOnlyFireInsideTheirWindowAndOnTheirLink) {
  FaultPlan plan;
  plan.Drop(0, 1, 1.0, /*start=*/100, /*end=*/200);
  SimulatedClock clock(50);
  FaultInjector inj(plan, &clock);
  EXPECT_EQ(inj.OnMessage(0, 1, "x", 1).verdict,
            FaultDecision::Verdict::kDeliver);
  clock.Set(100);
  EXPECT_EQ(inj.OnMessage(0, 1, "x", 1).verdict,
            FaultDecision::Verdict::kDrop);
  clock.Set(199);
  EXPECT_EQ(inj.OnMessage(0, 1, "x", 1).verdict,
            FaultDecision::Verdict::kDrop);
  clock.Set(200);
  EXPECT_EQ(inj.OnMessage(0, 1, "x", 1).verdict,
            FaultDecision::Verdict::kDeliver);  // end is exclusive
  clock.Set(150);
  EXPECT_EQ(inj.OnMessage(2, 1, "x", 1).verdict,
            FaultDecision::Verdict::kDeliver);  // other link untouched
}

TEST(FaultTransportTest, DroppedSendReturnsUnavailable) {
  FaultPlan plan;
  plan.Drop(0, 1, 1.0);
  FaultFixture f(std::move(plan));
  Status s = SendOne(*f.transport, 0, 1, "m", /*fault_signature=*/123);
  EXPECT_TRUE(s.IsUnavailable());
  EXPECT_TRUE(f.received[1].empty());
  EXPECT_EQ(f.transport->messages_dropped(), 1);
  EXPECT_EQ(f.injector.dropped(), 1);
}

TEST(FaultTransportTest, DuplicateDeliversTwiceAndPreChargesReceiver) {
  FaultPlan plan;
  plan.Duplicate(0, 1, 1.0);
  FaultFixture f(std::move(plan));
  ASSERT_OK(SendOne(*f.transport, 0, 1, "m", /*fault_signature=*/5));
  // One logical message, two deliveries; the receiver was pre-charged for
  // the copy it never expected.
  ASSERT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.received[1][0], "m");
  EXPECT_EQ(f.received[1][1], "m");
  EXPECT_EQ(f.transport->messages_duplicated(), 1);
  EXPECT_EQ(f.extra_delivered, 1);
  EXPECT_EQ(f.async_lost, 0);
}

// Muppet 2.0 passes events between functions on one machine without the
// network (§4.5), so a local send never meets the fault plan: not its
// drops, not its delays. The same frame across machines is dropped.
TEST(FaultTransportTest, LocalSendsBypassTheFaultPlan) {
  FaultPlan plan;
  plan.Drop(kAnyMachine, kAnyMachine, 1.0)
      .Delay(kAnyMachine, kAnyMachine, /*delay_micros=*/150);
  FaultFixture f(std::move(plan));
  ASSERT_OK(SendOne(*f.transport, 1, 1, "local", 1));
  ASSERT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.received[1][0], "local");
  EXPECT_EQ(f.clock.Now(), 0) << "local sends pay no fault delay";
  EXPECT_TRUE(SendOne(*f.transport, 0, 1, "remote", 2).IsUnavailable());
  EXPECT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.injector.dropped(), 1);
}

TEST(FaultTransportTest, DelayAdvancesSimulatedClock) {
  FaultPlan plan;
  plan.Delay(0, 1, /*delay_micros=*/250);
  FaultFixture f(std::move(plan));
  ASSERT_OK(SendOne(*f.transport, 0, 1, "m", 1));
  EXPECT_EQ(f.clock.Now(), 250);
  EXPECT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.injector.delayed(), 1);
}

TEST(FaultTransportTest, ReorderHoldsWithinBoundedWindow) {
  // Hold everything sent before t=100 with window 2; later traffic on the
  // link releases it after at most 2 overtaking messages.
  FaultPlan plan;
  plan.Reorder(0, 1, 1.0, /*window=*/2, /*start=*/0, /*end=*/100);
  FaultFixture f(std::move(plan));

  ASSERT_OK(SendOne(*f.transport, 0, 1, "held", 1));
  EXPECT_TRUE(f.received[1].empty());  // parked, but sender saw OK
  EXPECT_EQ(f.transport->messages_held(), 1);
  EXPECT_EQ(f.injector.held(), 1);

  f.clock.Set(100);  // past the rule window: new sends deliver normally
  ASSERT_OK(SendOne(*f.transport, 0, 1, "a", 2));
  ASSERT_OK(SendOne(*f.transport, 0, 1, "b", 3));

  // Bounded window: after 2 overtakes the held message must be out.
  ASSERT_EQ(f.received[1].size(), 3u);
  EXPECT_EQ(f.received[1][0], "a");  // overtook the held message
  int held_pos = -1;
  for (size_t i = 0; i < f.received[1].size(); ++i) {
    if (f.received[1][i] == "held") held_pos = static_cast<int>(i);
  }
  ASSERT_NE(held_pos, -1);
  EXPECT_LE(held_pos, 2);
  EXPECT_EQ(f.async_lost, 0);
}

TEST(FaultTransportTest, FlushHeldForcesDeliveryWithoutLinkTraffic) {
  FaultPlan plan;
  plan.Reorder(0, 1, 1.0, /*window=*/4);
  FaultFixture f(std::move(plan));
  ASSERT_OK(SendOne(*f.transport, 0, 1, "h1", 1));
  ASSERT_OK(SendOne(*f.transport, 0, 1, "h2", 2));
  EXPECT_TRUE(f.received[1].empty());
  f.transport->FlushHeld();
  ASSERT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.received[1][0], "h1");  // flush preserves arrival order
  EXPECT_EQ(f.received[1][1], "h2");
  f.transport->FlushHeld();  // idempotent on an empty buffer
  EXPECT_EQ(f.received[1].size(), 2u);
}

TEST(FaultTransportTest, HeldMessageToCrashedMachineCountsAsAsyncLoss) {
  FaultPlan plan;
  plan.Reorder(0, 1, 1.0, /*window=*/4);
  FaultFixture f(std::move(plan));
  ASSERT_OK(SendOne(*f.transport, 0, 1, "doomed", 1));
  f.transport->Crash(1);
  f.transport->FlushHeld();
  EXPECT_TRUE(f.received[1].empty());
  // The sender was told OK, so the loss is settled asynchronously.
  EXPECT_EQ(f.async_lost, 1);
  EXPECT_EQ(f.transport->messages_dropped(), 1);
}

TEST(FaultTransportTest, PartitionSeparatesPairUntilHealed) {
  FaultPlan plan;
  plan.PartitionAt(10, 0, 1).HealAt(20, 0, 1);
  FaultFixture f(std::move(plan), /*machines=*/3);

  ASSERT_OK(SendOne(*f.transport, 0, 1, "before", 1));
  f.clock.Set(10);
  f.injector.TakeDueActions();
  EXPECT_TRUE(f.injector.Partitioned(0, 1));
  EXPECT_TRUE(f.injector.Partitioned(1, 0));  // symmetric
  EXPECT_TRUE(SendOne(*f.transport, 0, 1, "cut", 2).IsUnavailable());
  EXPECT_TRUE(SendOne(*f.transport, 1, 0, "cut", 3).IsUnavailable());
  ASSERT_OK(SendOne(*f.transport, 2, 1, "side", 4));  // other links unaffected
  EXPECT_EQ(f.injector.partitioned_drops(), 2);

  f.clock.Set(20);
  f.injector.TakeDueActions();
  EXPECT_FALSE(f.injector.Partitioned(0, 1));
  ASSERT_OK(SendOne(*f.transport, 0, 1, "after", 5));
  ASSERT_EQ(f.received[1].size(), 3u);
}

TEST(FaultInjectorTest, TakeDueActionsPopsEachActionOnce) {
  FaultPlan plan;
  plan.CrashAt(30, 2).CrashAt(10, 1).RestartAt(20, 1);
  SimulatedClock clock(9);
  FaultInjector inj(plan, &clock);

  EXPECT_TRUE(inj.TakeDueActions().empty());  // nothing due before t=10
  clock.Set(20);
  std::vector<FaultAction> due = inj.TakeDueActions();
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].at_micros, 10);
  EXPECT_EQ(due[1].at_micros, 20);
  EXPECT_TRUE(inj.TakeDueActions().empty());  // exactly once
  clock.Set(1000);
  due = inj.TakeDueActions();
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].kind, FaultAction::Kind::kCrashMachine);
  EXPECT_EQ(due[0].a, 2);
  EXPECT_TRUE(inj.TakeDueActions().empty());
}

TEST(FaultTransportTest, SendAttemptsToCountsRoutedSends) {
  FaultFixture f(FaultPlan{}, /*machines=*/3);
  ASSERT_OK(SendOne(*f.transport, 0, 1, "a"));
  ASSERT_OK(SendOne(*f.transport, 2, 1, "b"));
  ASSERT_OK(SendOne(*f.transport, 0, 2, "c"));
  f.transport->Crash(1);
  (void)SendOne(*f.transport, 0, 1, "d");  // failed attempts still count
  EXPECT_EQ(f.transport->SendAttemptsTo(1), 3);
  EXPECT_EQ(f.transport->SendAttemptsTo(2), 1);
  EXPECT_EQ(f.transport->SendAttemptsTo(99), 0);
}

TEST(FaultTransportTest, BatchFramesAreFaultedWholeFrame) {
  FaultPlan plan;
  plan.Duplicate(0, 1, 1.0);
  FaultFixture f(std::move(plan));
  size_t accepted = 0;
  ASSERT_OK(f.transport->SendBatch(0, 1, "frame", 3, &accepted,
                                   /*fault_signature=*/9));
  EXPECT_EQ(accepted, 3u);
  // Original + whole-frame duplicate.
  ASSERT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.received[1][1], "frame");
  EXPECT_EQ(f.counts[1][1], 3u);
  // The duplicate copy carried 3 logical messages.
  EXPECT_EQ(f.transport->messages_duplicated(), 3);
  EXPECT_EQ(f.extra_delivered, 3);
}

}  // namespace
}  // namespace muppet
