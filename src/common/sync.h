// Concurrency contract layer: annotated mutex wrappers plus a runtime
// lock-order checker.
//
// Every lock in src/ goes through the wrappers in this header instead of
// naming std::mutex directly (tools/check_sync.py enforces this). The
// wrappers buy two things:
//
//  1. Clang thread-safety analysis. The MUPPET_* attribute macros expand
//     to Clang's capability attributes, so a Clang build with
//     -DMUPPET_WERROR_THREAD_SAFETY=ON statically proves that every
//     MUPPET_GUARDED_BY member is touched only under its mutex. On
//     GCC (the default toolchain here) the attributes compile away.
//
//  2. A runtime lock-order checker. Each Mutex/SharedMutex is constructed
//     with a LockLevel from the global hierarchy below. Whenever checking
//     is enabled (default: on in Debug builds, off when NDEBUG), acquiring
//     a lock whose level is not strictly greater than every lock already
//     held by the thread reports an inversion with both stacks — the one
//     recorded when the conflicting lock was taken and the current one —
//     and aborts (tests inject an abort hook instead). Acquiring the same
//     exclusive Mutex twice on one thread is reported as a guaranteed
//     self-deadlock.
//
// The global lock hierarchy (outer locks have SMALLER levels; a thread may
// only acquire a lock with a level strictly greater than everything it
// holds). DESIGN.md "Concurrency model" documents why each edge exists;
// tests/common/sync_test.cc pins this table against the levels each class
// actually assigns.
//
//   level  name             locks
//   -----  ---------------  ------------------------------------------
//     10   slate-stripe     Muppet2 per-machine striped slate locks
//     20   taps             engine tap registries (shared)
//     22   split-table      SplitTable live hot-key split registry (shared;
//                           read on the dispatch path under a stripe lock)
//     26   dedup-table      bounded exactly-once event identity tables
//                           (consulted on frame receive, which in process
//                           runs on the sender's thread, under its stripe;
//                           seeded under the recovery path while the
//                           machine is unroutable)
//     30   transport        Transport machine registry (shared)
//     36   fault-injector   FaultInjector decision/partition/action state
//     38   fault-hold       Transport reorder holdback buffer
//     39   heat             HeatTracker heavy-hitter sketch
//     40   queue            EventQueue mutex (items + stopped flag)
//     50   master           Master failed and recovering sets (read by
//                           routing under a slate-stripe lock)
//     60   drain            engine drain_mutex_ (inflight condvar)
//     70   slate-cache      SlateCache index, blocks and CLOCK hand (Delete
//                           waits on it for an in-flight flush write-back)
//     80   store-node       StorageNode column-family registry
//     90   store-tables     Shard SSTable list
//    100   store-io         MemTable index, SSTable file handle (the WAL has
//                           no lock: store-tables serialises its writer)
//    110   journal          SlateLogger append file (bulk slate log)
//    112   slate-changelog  SlateChangelog segment files + manifest cursor
//                           (appended under a slate-stripe lock on the
//                           update path; synced from the flusher thread)
//    117   slo              SloTracker per-stream latency/burn state (reads
//                           trace stripes and registry cells while held)
//    118   incidents        IncidentLog watchdog incident ring
//    120   metrics          MetricsRegistry name->counter maps
//    122   trace-stripe     TraceSink per-stripe trace slots (recent ring,
//                           slowest candidates, trace-id index)
//    124   trace-labels     TraceSink (machine, name) span-label table
//    130   logging          log sink capture hook (innermost: any
//                           subsystem may log while holding its locks)
#ifndef MUPPET_COMMON_SYNC_H_
#define MUPPET_COMMON_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>  // wrapped below; do not use directly
#include <mutex>               // wrapped below; do not use directly
#include <shared_mutex>        // wrapped below; do not use directly

// ---------------------------------------------------------------------------
// Clang thread-safety attribute macros (no-ops elsewhere). Names and usage
// follow the Clang ThreadSafetyAnalysis documentation.
// ---------------------------------------------------------------------------
#if defined(__clang__)
#define MUPPET_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define MUPPET_THREAD_ANNOTATION(x)
#endif

#define MUPPET_CAPABILITY(x) MUPPET_THREAD_ANNOTATION(capability(x))
#define MUPPET_SCOPED_CAPABILITY MUPPET_THREAD_ANNOTATION(scoped_lockable)
#define MUPPET_GUARDED_BY(x) MUPPET_THREAD_ANNOTATION(guarded_by(x))
#define MUPPET_PT_GUARDED_BY(x) MUPPET_THREAD_ANNOTATION(pt_guarded_by(x))
#define MUPPET_ACQUIRED_BEFORE(...) \
  MUPPET_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define MUPPET_ACQUIRED_AFTER(...) \
  MUPPET_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define MUPPET_REQUIRES(...) \
  MUPPET_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MUPPET_REQUIRES_SHARED(...) \
  MUPPET_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define MUPPET_ACQUIRE(...) \
  MUPPET_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MUPPET_ACQUIRE_SHARED(...) \
  MUPPET_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define MUPPET_RELEASE(...) \
  MUPPET_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MUPPET_RELEASE_SHARED(...) \
  MUPPET_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define MUPPET_RELEASE_GENERIC(...) \
  MUPPET_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))
#define MUPPET_TRY_ACQUIRE(...) \
  MUPPET_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define MUPPET_TRY_ACQUIRE_SHARED(...) \
  MUPPET_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))
#define MUPPET_EXCLUDES(...) \
  MUPPET_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define MUPPET_ASSERT_CAPABILITY(x) \
  MUPPET_THREAD_ANNOTATION(assert_capability(x))
#define MUPPET_RETURN_CAPABILITY(x) MUPPET_THREAD_ANNOTATION(lock_returned(x))
#define MUPPET_NO_THREAD_SAFETY_ANALYSIS \
  MUPPET_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace muppet {

// Global lock hierarchy. Smaller value = outer lock. A thread may acquire a
// lock only when its level is strictly greater than the level of every lock
// it already holds; kUnordered locks opt out of checking entirely (tests,
// scratch locks). See the table at the top of this header.
enum class LockLevel : int {
  kUnordered = 0,
  kSlateStripe = 10,
  kTaps = 20,
  kSplitTable = 22,
  kDedupTable = 26,
  kTransport = 30,
  kTcpState = 31,
  kTcpWriteQueue = 32,
  kFaultInjector = 36,
  kFaultHold = 38,
  kHeat = 39,
  kQueue = 40,
  kMaster = 50,
  kDrain = 60,
  kSlateCache = 70,
  kStoreNode = 80,
  kStoreTables = 90,
  kStoreIo = 100,
  kJournal = 110,
  kSlateChangelog = 112,
  kSlo = 117,
  kIncidents = 118,
  kMetrics = 120,
  kTraceStripe = 122,
  kTraceLabels = 124,
  kLogging = 130,
};

namespace sync_internal {

// Acquisition bookkeeping, implemented in sync.cc. All entry points are
// cheap no-ops (one relaxed atomic load) when checking is disabled.
void OnAcquire(const void* lock, LockLevel level, bool shared);
void OnRelease(const void* lock);

}  // namespace sync_internal

// Details of a detected inversion, handed to the abort hook (or printed
// before std::abort when no hook is installed).
struct LockOrderViolation {
  // The lock being acquired and the conflicting lock already held.
  const void* acquiring = nullptr;
  LockLevel acquiring_level = LockLevel::kUnordered;
  const void* held = nullptr;
  LockLevel held_level = LockLevel::kUnordered;
  // True when `acquiring == held` (same-thread self-deadlock on an
  // exclusive mutex) rather than a hierarchy inversion.
  bool self_deadlock = false;
  // Stack recorded when `held` was acquired (empty unless stack capture
  // was enabled at that acquisition).
  void* const* held_frames = nullptr;
  int held_frame_count = 0;
};

// Hook invoked instead of aborting when a violation is detected; the
// acquisition then proceeds so the test can unwind. Returns the previous
// handler. Pass nullptr to restore the default print-both-stacks-and-abort
// behaviour.
using LockOrderAbortHandler = void (*)(const LockOrderViolation&);
LockOrderAbortHandler SetLockOrderAbortHandler(LockOrderAbortHandler handler);

// Runtime switches. Checking defaults to on in Debug builds (NDEBUG not
// defined) and off otherwise; stack capture follows the same default and
// only matters while checking is on.
void SetLockOrderCheckingEnabled(bool enabled);
bool LockOrderCheckingEnabled();
void SetLockOrderStackCaptureEnabled(bool enabled);

// Scoped enable/disable for tests (the tier-1 build is RelWithDebInfo, so
// sync_test and the drain stress test turn checking on explicitly).
class ScopedLockOrderEnforcement {
 public:
  explicit ScopedLockOrderEnforcement(bool enabled = true)
      : previous_(LockOrderCheckingEnabled()) {
    SetLockOrderCheckingEnabled(enabled);
  }
  ~ScopedLockOrderEnforcement() { SetLockOrderCheckingEnabled(previous_); }

  ScopedLockOrderEnforcement(const ScopedLockOrderEnforcement&) = delete;
  ScopedLockOrderEnforcement& operator=(const ScopedLockOrderEnforcement&) =
      delete;

 private:
  bool previous_;
};

// Exclusive mutex participating in the lock hierarchy.
class MUPPET_CAPABILITY("mutex") Mutex {
 public:
  Mutex() : Mutex(LockLevel::kUnordered) {}
  explicit Mutex(LockLevel level) : level_(level) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() MUPPET_ACQUIRE() {
    sync_internal::OnAcquire(this, level_, /*shared=*/false);
    mu_.lock();
  }
  void unlock() MUPPET_RELEASE() {
    mu_.unlock();
    sync_internal::OnRelease(this);
  }
  bool try_lock() MUPPET_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    // A successful try_lock cannot deadlock, but it still constrains every
    // later acquisition, so it is recorded (and checked) like lock().
    sync_internal::OnAcquire(this, level_, /*shared=*/false);
    return true;
  }

  LockLevel level() const { return level_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockLevel level_;
};

// Reader/writer mutex participating in the lock hierarchy.
class MUPPET_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() : SharedMutex(LockLevel::kUnordered) {}
  explicit SharedMutex(LockLevel level) : level_(level) {}

  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() MUPPET_ACQUIRE() {
    sync_internal::OnAcquire(this, level_, /*shared=*/false);
    mu_.lock();
  }
  void unlock() MUPPET_RELEASE() {
    mu_.unlock();
    sync_internal::OnRelease(this);
  }
  void lock_shared() MUPPET_ACQUIRE_SHARED() {
    sync_internal::OnAcquire(this, level_, /*shared=*/true);
    mu_.lock_shared();
  }
  void unlock_shared() MUPPET_RELEASE_SHARED() {
    mu_.unlock_shared();
    sync_internal::OnRelease(this);
  }

  LockLevel level() const { return level_; }

 private:
  std::shared_mutex mu_;
  const LockLevel level_;
};

// RAII exclusive lock. The two-argument form implements the
// try-then-block pattern the dispatch hot path uses to count stripe
// contention without a second atomic.
class MUPPET_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) MUPPET_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  MutexLock(Mutex& mu, bool* contended) MUPPET_ACQUIRE(mu) : mu_(mu) {
    if (mu_.try_lock()) {
      *contended = false;
    } else {
      *contended = true;
      mu_.lock();
    }
  }
  ~MutexLock() MUPPET_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  Mutex& mu_;
};

// RAII shared (reader) lock on a SharedMutex.
class MUPPET_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) MUPPET_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() MUPPET_RELEASE_GENERIC() { mu_.unlock_shared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// RAII exclusive (writer) lock on a SharedMutex.
class MUPPET_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) MUPPET_ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() MUPPET_RELEASE() { mu_.unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

// Condition variable bound to muppet::Mutex. Wait() requires the mutex to
// be held (via MutexLock); the lock-order bookkeeping treats the mutex as
// continuously held across the wait, which is correct for every wait site
// in this codebase (no predicate takes further locks). Callers use
// explicit `while (!pred) cv.Wait(mu);` loops rather than a predicate
// overload so that Clang's analysis sees the guarded reads inside a scope
// that holds the lock (lambdas are analyzed with no capabilities held).
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) MUPPET_REQUIRES(mu) {
    // Adopt the already-held std::mutex for the duration of the wait; the
    // unique_lock must not unlock it on destruction (the enclosing
    // MutexLock owns the release).
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  // Waits until done() holds or `timeout` of real time passes (spurious
  // wake-ups resume the wait); returns done().
  template <typename Predicate>
  bool WaitFor(Mutex& mu, std::chrono::microseconds timeout, Predicate done)
      MUPPET_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const bool result = cv_.wait_for(native, timeout, done);
    native.release();
    return result;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace muppet

#endif  // MUPPET_COMMON_SYNC_H_
