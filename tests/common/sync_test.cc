#include "common/sync.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/slo.h"
#include "common/trace.h"
#include "core/heat.h"
#include "core/keysplit.h"
#include "core/slate_cache.h"
#include "engine/master.h"
#include "engine/muppet2.h"
#include "engine/queue.h"
#include "engine/watchdog.h"
#include "kvstore/memtable.h"
#include "kvstore/node.h"
#include "net/fault.h"
#include "net/tcp_transport.h"
#include "net/transport.h"
#include "service/bulk_slates.h"

namespace muppet {
namespace {

// ---------------------------------------------------------------------------
// Abort-hook plumbing: the handler is a plain function pointer, so captured
// violations land in globals.
// ---------------------------------------------------------------------------
std::atomic<int> g_violations{0};
LockOrderViolation g_last_violation;

void RecordViolation(const LockOrderViolation& v) {
  g_last_violation = v;
  g_violations.fetch_add(1);
}

class LockOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_violations.store(0);
    previous_ = SetLockOrderAbortHandler(&RecordViolation);
  }
  void TearDown() override { SetLockOrderAbortHandler(previous_); }

  LockOrderAbortHandler previous_ = nullptr;
};

// ---------------------------------------------------------------------------
// RAII semantics.
// ---------------------------------------------------------------------------

TEST(SyncWrappersTest, MutexLockReleasesOnScopeExit) {
  Mutex mu;
  {
    MutexLock lock(mu);
  }
  ASSERT_TRUE(mu.try_lock());  // released by the destructor
  mu.unlock();
}

TEST(SyncWrappersTest, ContentionProbeReportsUncontended) {
  Mutex mu;
  bool contended = true;
  {
    MutexLock lock(mu, &contended);
    EXPECT_FALSE(contended);
  }
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(SyncWrappersTest, ContentionProbeReportsContended) {
  Mutex mu;
  std::atomic<bool> holder_ready{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    MutexLock lock(mu);
    holder_ready.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!holder_ready.load()) std::this_thread::yield();
  bool contended = false;
  std::thread prober([&] {
    MutexLock lock(mu, &contended);  // blocks until holder releases
  });
  // Give the prober time to fail its try_lock, then let the holder go.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  holder.join();
  prober.join();
  EXPECT_TRUE(contended);
}

TEST(SyncWrappersTest, ReaderLocksAreConcurrentWriterIsExclusive) {
  SharedMutex mu;
  {
    ReaderMutexLock r1(mu);
    ReaderMutexLock r2(mu);  // two concurrent readers: fine
  }
  {
    WriterMutexLock w(mu);
  }
  mu.lock_shared();  // everything released above
  mu.unlock_shared();
}

TEST(SyncWrappersTest, CondVarRoundTrip) {
  Mutex mu;
  CondVar cv;
  bool flag = false;
  std::thread waker([&] {
    MutexLock lock(mu);
    flag = true;
    cv.NotifyOne();
  });
  {
    MutexLock lock(mu);
    while (!flag) cv.Wait(mu);
  }
  waker.join();
}

// ---------------------------------------------------------------------------
// Lock-order checker: accept and abort paths.
// ---------------------------------------------------------------------------

TEST_F(LockOrderTest, AcceptsDescendingHierarchyAcquisitions) {
  ScopedLockOrderEnforcement enforce;
  Mutex outer(LockLevel::kSlateStripe);
  Mutex mid(LockLevel::kQueue);
  Mutex inner(LockLevel::kLogging);
  {
    MutexLock a(outer);
    MutexLock b(mid);
    MutexLock c(inner);
  }
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockOrderTest, AcceptsReacquisitionAfterRelease) {
  ScopedLockOrderEnforcement enforce;
  Mutex outer(LockLevel::kSlateStripe);
  Mutex inner(LockLevel::kQueue);
  for (int i = 0; i < 3; ++i) {
    MutexLock a(outer);
    MutexLock b(inner);
  }
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockOrderTest, CatchesInversion) {
  ScopedLockOrderEnforcement enforce;
  // A cache->queue acquisition inverts the documented queue < cache order
  // (the real system only ever takes queue locks before cache locks).
  Mutex cache(LockLevel::kSlateCache);
  Mutex queue(LockLevel::kQueue);
  {
    MutexLock a(cache);
    MutexLock b(queue);  // inversion: kQueue < kSlateCache
  }
  ASSERT_EQ(g_violations.load(), 1);
  EXPECT_EQ(g_last_violation.acquiring_level, LockLevel::kQueue);
  EXPECT_EQ(g_last_violation.held_level, LockLevel::kSlateCache);
  EXPECT_FALSE(g_last_violation.self_deadlock);
}

TEST_F(LockOrderTest, CatchesEqualLevelNesting) {
  ScopedLockOrderEnforcement enforce;
  Mutex a(LockLevel::kQueue);
  Mutex b(LockLevel::kQueue);
  {
    MutexLock la(a);
    MutexLock lb(b);  // same level while held: potential ABBA deadlock
  }
  EXPECT_EQ(g_violations.load(), 1);
}

TEST_F(LockOrderTest, CatchesSelfDeadlock) {
  ScopedLockOrderEnforcement enforce;
  Mutex mu(LockLevel::kQueue);
  mu.lock();
  sync_internal::OnAcquire(&mu, mu.level(), /*shared=*/false);  // simulate
  ASSERT_EQ(g_violations.load(), 1);
  EXPECT_TRUE(g_last_violation.self_deadlock);
  sync_internal::OnRelease(&mu);
  mu.unlock();
}

TEST_F(LockOrderTest, RecordsHeldStackWhenCaptureEnabled) {
  ScopedLockOrderEnforcement enforce;
  SetLockOrderStackCaptureEnabled(true);
  Mutex cache(LockLevel::kSlateCache);
  Mutex queue(LockLevel::kQueue);
  {
    MutexLock a(cache);
    MutexLock b(queue);
  }
  SetLockOrderStackCaptureEnabled(false);
  ASSERT_EQ(g_violations.load(), 1);
  EXPECT_GT(g_last_violation.held_frame_count, 0);
}

TEST_F(LockOrderTest, AllowsRecursiveSharedAcquisition) {
  ScopedLockOrderEnforcement enforce;
  // Publish-from-a-tap re-enters RunTaps, taking the taps SharedMutex
  // shared twice on one thread; the checker must not flag it.
  SharedMutex taps(LockLevel::kTaps);
  taps.lock_shared();
  taps.lock_shared();
  taps.unlock_shared();
  taps.unlock_shared();
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockOrderTest, UnorderedLocksAreExempt) {
  ScopedLockOrderEnforcement enforce;
  Mutex ordered(LockLevel::kSlateCache);
  Mutex scratch;  // kUnordered
  {
    MutexLock a(ordered);
    MutexLock b(scratch);  // no violation either way
  }
  EXPECT_EQ(g_violations.load(), 0);
}

TEST_F(LockOrderTest, DisabledCheckerIsSilent) {
  ScopedLockOrderEnforcement enforce(false);
  Mutex cache(LockLevel::kSlateCache);
  Mutex queue(LockLevel::kQueue);
  {
    MutexLock a(cache);
    MutexLock b(queue);  // inversion, but checking is off
  }
  EXPECT_EQ(g_violations.load(), 0);
}

// ---------------------------------------------------------------------------
// Hierarchy regression: the table in DESIGN.md ("Concurrency model") and
// common/sync.h must match the levels each subsystem actually assigns. A
// level change here without a doc/table update is a test failure.
// ---------------------------------------------------------------------------

TEST(LockHierarchyTest, SubsystemsAssignTheDocumentedLevels) {
  EXPECT_EQ(Muppet2Engine::kSlateStripeLockLevel, LockLevel::kSlateStripe);
  EXPECT_EQ(Muppet2Engine::kTapsLockLevel, LockLevel::kTaps);
  EXPECT_EQ(SplitTable::kLockLevel, LockLevel::kSplitTable);
  EXPECT_EQ(HeatTracker::kLockLevel, LockLevel::kHeat);
  EXPECT_EQ(Muppet2Engine::kDrainLockLevel, LockLevel::kDrain);
  EXPECT_EQ(InMemoryTransport::kRegistryLockLevel, LockLevel::kTransport);
  EXPECT_EQ(TcpTransport::kStateLockLevel, LockLevel::kTcpState);
  EXPECT_EQ(TcpTransport::kWriteQueueLockLevel, LockLevel::kTcpWriteQueue);
  EXPECT_EQ(FaultInjector::kLockLevel, LockLevel::kFaultInjector);
  EXPECT_EQ(InMemoryTransport::kHoldLockLevel, LockLevel::kFaultHold);
  EXPECT_EQ(EventQueue::kLockLevel, LockLevel::kQueue);
  EXPECT_EQ(Master::kLockLevel, LockLevel::kMaster);
  EXPECT_EQ(SlateCache::kLockLevel, LockLevel::kSlateCache);
  EXPECT_EQ(kv::StorageNode::kCfLockLevel, LockLevel::kStoreNode);
  EXPECT_EQ(kv::Shard::kTablesLockLevel, LockLevel::kStoreTables);
  EXPECT_EQ(kv::MemTable::kLockLevel, LockLevel::kStoreIo);
  EXPECT_EQ(SlateLogger::kLockLevel, LockLevel::kJournal);
  EXPECT_EQ(DedupTable::kLockLevel, LockLevel::kDedupTable);
  EXPECT_EQ(SlateChangelog::kLockLevel, LockLevel::kSlateChangelog);
  EXPECT_EQ(SloTracker::kLockLevel, LockLevel::kSlo);
  EXPECT_EQ(IncidentLog::kLockLevel, LockLevel::kIncidents);
  EXPECT_EQ(MetricsRegistry::kLockLevel, LockLevel::kMetrics);
  EXPECT_EQ(TraceSink::kStripeLockLevel, LockLevel::kTraceStripe);
  EXPECT_EQ(TraceSink::kLabelsLockLevel, LockLevel::kTraceLabels);
}

TEST(LockHierarchyTest, DocumentedOrderingHolds) {
  // The nesting edges the code actually exercises, outermost first. Each
  // EXPECT_LT is one "outer may acquire inner" edge from DESIGN.md.
  auto lt = [](LockLevel a, LockLevel b) {
    return static_cast<int>(a) < static_cast<int>(b);
  };
  // Updater path: stripe -> taps -> transport -> queue -> master ->
  // drain -> cache -> store.
  EXPECT_TRUE(lt(LockLevel::kSlateStripe, LockLevel::kTaps));
  // Load-management plane: the dispatch path consults the split table and
  // heat sketch under a stripe. An updater's publish to another machine
  // reaches that machine's exactly-once dedup table under the stripe too,
  // since the in-memory transport delivers a frame on the sender's thread.
  EXPECT_TRUE(lt(LockLevel::kSlateStripe, LockLevel::kSplitTable));
  EXPECT_TRUE(lt(LockLevel::kSlateStripe, LockLevel::kDedupTable));
  EXPECT_TRUE(lt(LockLevel::kFaultHold, LockLevel::kHeat));
  EXPECT_TRUE(lt(LockLevel::kHeat, LockLevel::kQueue));
  EXPECT_TRUE(lt(LockLevel::kTaps, LockLevel::kTransport));
  // TCP transport: epoll-loop state may take a peer's write-queue lock
  // while holding the state lock (DrainPeerWrites), never the reverse.
  EXPECT_TRUE(lt(LockLevel::kTransport, LockLevel::kTcpState));
  EXPECT_TRUE(lt(LockLevel::kTcpState, LockLevel::kTcpWriteQueue));
  EXPECT_TRUE(lt(LockLevel::kTcpWriteQueue, LockLevel::kFaultInjector));
  // Fault path: the injector's decision lock and the reorder holdback lock
  // are leaves between the registry and the receiver's queues; both are
  // released before any handler (and so any queue lock) runs.
  EXPECT_TRUE(lt(LockLevel::kTransport, LockLevel::kFaultInjector));
  EXPECT_TRUE(lt(LockLevel::kFaultInjector, LockLevel::kFaultHold));
  EXPECT_TRUE(lt(LockLevel::kFaultHold, LockLevel::kQueue));
  EXPECT_TRUE(lt(LockLevel::kQueue, LockLevel::kMaster));
  EXPECT_TRUE(lt(LockLevel::kMaster, LockLevel::kDrain));
  EXPECT_TRUE(lt(LockLevel::kDrain, LockLevel::kSlateCache));
  // Durability plane (DESIGN.md §12): the dedup check runs on the receive
  // path before dispatch touches any queue lock; changelog appends run
  // under the updater's slate stripe / cache locks and may reach the
  // store (checkpoint flush), so the changelog sits above the whole store
  // chain but below the metrics/logging leaves.
  EXPECT_TRUE(lt(LockLevel::kDedupTable, LockLevel::kQueue));
  EXPECT_TRUE(lt(LockLevel::kSlateStripe, LockLevel::kSlateChangelog));
  EXPECT_TRUE(lt(LockLevel::kSlateCache, LockLevel::kSlateChangelog));
  EXPECT_TRUE(lt(LockLevel::kStoreIo, LockLevel::kSlateChangelog));
  EXPECT_TRUE(lt(LockLevel::kJournal, LockLevel::kSlateChangelog));
  EXPECT_TRUE(lt(LockLevel::kSlateChangelog, LockLevel::kMetrics));
  // Cache eviction writes back under the cache lock: cache -> store chain.
  EXPECT_TRUE(lt(LockLevel::kSlateCache, LockLevel::kStoreNode));
  EXPECT_TRUE(lt(LockLevel::kStoreNode, LockLevel::kStoreTables));
  EXPECT_TRUE(lt(LockLevel::kStoreTables, LockLevel::kStoreIo));
  // Anything may append to the slate logger, register a metric, or log.
  EXPECT_TRUE(lt(LockLevel::kStoreIo, LockLevel::kJournal));
  EXPECT_TRUE(lt(LockLevel::kJournal, LockLevel::kMetrics));
  // Health & SLO plane (DESIGN.md §14): the SLO tracker registers burn
  // gauges while holding its own lock; the incident log ring sits beside
  // it, above the registry.
  EXPECT_TRUE(lt(LockLevel::kSlo, LockLevel::kMetrics));
  EXPECT_TRUE(lt(LockLevel::kIncidents, LockLevel::kMetrics));
  // Spans are recorded under subsystem locks (queue, slate stripes); an
  // SLO harvest reads the stripes and the label table under its own lock.
  EXPECT_TRUE(lt(LockLevel::kMetrics, LockLevel::kTraceStripe));
  EXPECT_TRUE(lt(LockLevel::kSlo, LockLevel::kTraceStripe));
  EXPECT_TRUE(lt(LockLevel::kTraceStripe, LockLevel::kTraceLabels));
  EXPECT_TRUE(lt(LockLevel::kTraceLabels, LockLevel::kLogging));
  EXPECT_TRUE(lt(LockLevel::kMetrics, LockLevel::kLogging));
}

// ---------------------------------------------------------------------------
// The real engine respects the hierarchy end to end: run a small pipeline
// with enforcement (and the default abort handler!) enabled — any inversion
// on the publish/dispatch/process/flush path would abort the test binary.
// ---------------------------------------------------------------------------

TEST(LockHierarchyTest, EngineQueueAndCacheHonorHierarchyUnderEnforcement) {
  ScopedLockOrderEnforcement enforce;
  EventQueue queue(8);
  SlateCache cache({.capacity = 2}, [](const SlateCache::DirtySlate&) {
    return Status::OK();
  });
  RoutedEvent re;
  re.function_id = 0;
  ASSERT_TRUE(queue.TryPush(std::move(re)).ok());
  RoutedEvent out;
  ASSERT_TRUE(queue.Pop(&out));
  for (int i = 0; i < 8; ++i) {
    SlateId id{"u", Bytes(1, static_cast<char>('a' + i))};
    ASSERT_TRUE(cache.Update(id, "v", /*now=*/i, /*write_through=*/false)
                    .ok());  // evictions write back under the cache lock
  }
  queue.Stop();
}

}  // namespace
}  // namespace muppet
