#include "engine/master.h"

#include <set>

#include "gtest/gtest.h"

namespace muppet {
namespace {

// Every engine in a process routes on the master's set, so a report is
// "broadcast" (§4.3) the moment it lands there: AnyFailed() is the routing
// fast path's check.
TEST(MasterTest, FirstReportBroadcasts) {
  Master master;
  EXPECT_FALSE(master.AnyFailed());
  EXPECT_TRUE(master.ReportFailure(3));
  EXPECT_TRUE(master.IsFailed(3));
  EXPECT_TRUE(master.AnyFailed());
  EXPECT_EQ(master.failed(), std::set<MachineId>({3}));
  EXPECT_EQ(master.failures_reported(), 1);
}

TEST(MasterTest, DuplicateReportsIdempotent) {
  Master master;
  EXPECT_TRUE(master.ReportFailure(1));
  EXPECT_FALSE(master.ReportFailure(1));
  EXPECT_FALSE(master.ReportFailure(1));
  EXPECT_EQ(master.failed(), std::set<MachineId>({1}));
  EXPECT_EQ(master.failures_reported(), 1);
}

TEST(MasterTest, FailedSetAccumulates) {
  Master master;
  master.ReportFailure(1);
  master.ReportFailure(4);
  EXPECT_EQ(master.failed(), std::set<MachineId>({1, 4}));
  EXPECT_FALSE(master.IsFailed(2));
  EXPECT_EQ(master.failures_reported(), 2);
}

TEST(MasterTest, ClearFailureRestores) {
  Master master;
  master.ReportFailure(1);
  master.ReportFailure(2);
  EXPECT_TRUE(master.ClearFailure(1));
  EXPECT_FALSE(master.IsFailed(1));
  EXPECT_EQ(master.failed(), std::set<MachineId>({2}));
  EXPECT_TRUE(master.AnyFailed());
  EXPECT_TRUE(master.ClearFailure(2));
  EXPECT_TRUE(master.failed().empty());
  EXPECT_FALSE(master.AnyFailed());
}

TEST(MasterTest, ClearFailureOfHealthyMachineDoesNotBroadcast) {
  Master master;
  // Never reported failed: nothing to clear.
  EXPECT_FALSE(master.ClearFailure(5));
  EXPECT_TRUE(master.failed().empty());
  EXPECT_FALSE(master.AnyFailed());
  // And clearing twice clears only once.
  master.ReportFailure(5);
  EXPECT_TRUE(master.ClearFailure(5));
  EXPECT_FALSE(master.ClearFailure(5));
  EXPECT_FALSE(master.IsFailed(5));
}

// ---- Durable recovery ordering (DESIGN.md §12): a recovering machine
// must stay unroutable (in failed()) until its changelog replay finishes
// and ClearFailure runs. The ClearFailure-before-replay bug this guards
// against let events route to a machine whose slates were still empty.

TEST(MasterTest, BeginRecoveryKeepsMachineUnroutable) {
  Master master;
  master.ReportFailure(2);
  EXPECT_TRUE(master.BeginRecovery(2));
  // Still failed for routing, flagged as recovering.
  EXPECT_TRUE(master.IsFailed(2));
  EXPECT_TRUE(master.IsRecovering(2));
  EXPECT_EQ(master.failed(), std::set<MachineId>({2}));
  // Replay done: ClearFailure rejoins the machine and ends recovery.
  EXPECT_TRUE(master.ClearFailure(2));
  EXPECT_FALSE(master.IsFailed(2));
  EXPECT_FALSE(master.IsRecovering(2));
  EXPECT_FALSE(master.AnyFailed());
}

TEST(MasterTest, BeginRecoveryRequiresAFailedMachine) {
  Master master;
  EXPECT_FALSE(master.BeginRecovery(4));  // never failed
  EXPECT_FALSE(master.IsRecovering(4));
  master.ReportFailure(4);
  EXPECT_TRUE(master.BeginRecovery(4));
  EXPECT_FALSE(master.BeginRecovery(4));  // already recovering
}

TEST(MasterTest, ReCrashDuringRecoveryAbortsIt) {
  Master master;
  master.ReportFailure(1);
  EXPECT_TRUE(master.BeginRecovery(1));
  // The machine dies again mid-replay: the recovery is abandoned and the
  // machine is plain-failed, so a later restart must BeginRecovery anew.
  // The failure was already known, so the report is not a new one.
  EXPECT_FALSE(master.ReportFailure(1));
  EXPECT_FALSE(master.IsRecovering(1));
  EXPECT_TRUE(master.IsFailed(1));
  EXPECT_TRUE(master.BeginRecovery(1));
  EXPECT_EQ(master.failures_reported(), 1);
}

TEST(MasterTest, FailClearFailCycleBroadcastsEachTransition) {
  Master master;
  EXPECT_TRUE(master.ReportFailure(1));
  EXPECT_TRUE(master.AnyFailed());
  EXPECT_TRUE(master.ClearFailure(1));
  EXPECT_FALSE(master.AnyFailed());
  EXPECT_TRUE(master.ReportFailure(1));
  EXPECT_TRUE(master.AnyFailed());
  EXPECT_TRUE(master.IsFailed(1));
  EXPECT_EQ(master.failures_reported(), 2);
}

}  // namespace
}  // namespace muppet
