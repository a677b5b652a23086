#include "common/trace.h"

#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

Span MakeSpan(uint64_t trace_id, Timestamp start, Timestamp end,
              SpanKind kind = SpanKind::kMapExec) {
  Span s;
  s.trace_id = trace_id;
  s.span_id = NextSpanId();
  s.kind = kind;
  s.machine = 0;
  s.start_us = start;
  s.end_us = end;
  return s;
}

TEST(TraceSamplingTest, DeterministicAcrossCalls) {
  for (uint64_t key_hash : {1ULL, 42ULL, 0xDEADBEEFULL, ~0ULL}) {
    for (uint64_t period : {2ULL, 64ULL, 1024ULL}) {
      EXPECT_EQ(TraceSampled(key_hash, period),
                TraceSampled(key_hash, period));
    }
  }
}

TEST(TraceSamplingTest, PeriodOneSamplesEverythingZeroNothing) {
  for (uint64_t key_hash = 0; key_hash < 100; ++key_hash) {
    EXPECT_TRUE(TraceSampled(key_hash, 1));
    EXPECT_FALSE(TraceSampled(key_hash, 0));
  }
}

TEST(TraceSamplingTest, SamplesRoughlyOneInPeriod) {
  const uint64_t period = 16;
  int sampled = 0;
  const int kKeys = 4096;
  for (int i = 0; i < kKeys; ++i) {
    if (TraceSampled(Fnv1a64(std::to_string(i)), period)) ++sampled;
  }
  // Expected 256; allow a generous band — the point is "a fraction", not
  // "all" or "none".
  EXPECT_GT(sampled, kKeys / static_cast<int>(period) / 3);
  EXPECT_LT(sampled, kKeys / static_cast<int>(period) * 3);
}

TEST(TraceIdTest, NeverZeroAndSeqSensitive) {
  std::set<uint64_t> ids;
  for (uint64_t seq = 1; seq <= 100; ++seq) {
    const uint64_t id = MakeTraceId(/*key_hash=*/7, seq);
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  // Same key, different publishes -> distinct traces.
  EXPECT_EQ(ids.size(), 100u);
}

TEST(SpanIdTest, ThreadsDrawDistinctNonZeroIds) {
  constexpr int kThreads = 4;
  constexpr int kIds = 5000;  // several per-thread blocks each
  std::vector<std::vector<uint64_t>> drawn(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&drawn, t] {
      for (int i = 0; i < kIds; ++i) drawn[t].push_back(NextSpanId());
    });
  }
  for (auto& t : threads) t.join();
  std::set<uint64_t> ids;
  for (const auto& batch : drawn) {
    for (uint64_t id : batch) {
      EXPECT_NE(id, 0u);
      ids.insert(id);
    }
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads) * kIds);
}

TEST(SpanIdTest, ForkedChildAndParentDrawDisjointIds) {
  // Two processes (two muppetd nodes) must never hand out the same span
  // id: /tracez consumers key spans by id across nodes. A forked child
  // starts from a copy of the parent's allocator state, the worst case.
  (void)NextSpanId();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  constexpr int kIds = 2048;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(fds[0]);
    uint64_t ids[kIds];
    for (uint64_t& id : ids) id = NextSpanId();
    const bool ok = ::write(fds[1], ids, sizeof(ids)) ==
                    static_cast<ssize_t>(sizeof(ids));
    ::_exit(ok ? 0 : 1);
  }
  ::close(fds[1]);
  std::set<uint64_t> parent_ids;
  for (int i = 0; i < kIds; ++i) parent_ids.insert(NextSpanId());
  std::vector<uint64_t> child_ids(kIds);
  size_t got = 0;
  char* out = reinterpret_cast<char*>(child_ids.data());
  while (got < kIds * sizeof(uint64_t)) {
    const ssize_t n = ::read(fds[0], out + got, kIds * sizeof(uint64_t) - got);
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  ::close(fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(got, kIds * sizeof(uint64_t));
  size_t shared = 0;
  for (uint64_t id : child_ids) {
    EXPECT_NE(id, 0u);
    shared += parent_ids.count(id);
  }
  EXPECT_EQ(shared, 0u);
}

TEST(SpanKindTest, NamesCoverTaxonomy) {
  EXPECT_STREQ(SpanKindName(SpanKind::kPublish), "publish");
  EXPECT_STREQ(SpanKindName(SpanKind::kQueueWait), "queue_wait");
  EXPECT_STREQ(SpanKindName(SpanKind::kMapExec), "map_exec");
  EXPECT_STREQ(SpanKindName(SpanKind::kUpdateExec), "update_exec");
  EXPECT_STREQ(SpanKindName(SpanKind::kSlateFetch), "slate_fetch");
  EXPECT_STREQ(SpanKindName(SpanKind::kNetHop), "net_hop");
}

TEST(TraceSinkTest, GroupsSpansByTraceId) {
  TraceSink sink;
  sink.Record(MakeSpan(10, 0, 5));
  sink.Record(MakeSpan(10, 5, 9));
  sink.Record(MakeSpan(20, 2, 3));
  const auto recent = sink.Recent();
  ASSERT_EQ(recent.size(), 2u);
  for (const auto& record : recent) {
    if (record.trace_id == 10) {
      EXPECT_EQ(record.spans.size(), 2u);
      EXPECT_EQ(record.first_start_us, 0);
      EXPECT_EQ(record.last_end_us, 9);
      EXPECT_EQ(record.duration_us(), 9);
    } else {
      EXPECT_EQ(record.trace_id, 20u);
      EXPECT_EQ(record.spans.size(), 1u);
    }
  }
  EXPECT_EQ(sink.spans_recorded(), 3);
}

TEST(TraceSinkTest, DropsUntracedSpans) {
  TraceSink sink;
  sink.Record(MakeSpan(0, 0, 1));
  EXPECT_TRUE(sink.Recent().empty());
  EXPECT_EQ(sink.spans_dropped(), 1);
}

TEST(TraceSinkTest, RecentIsNewestFirstAndBounded) {
  TraceSink::Options options;
  options.recent_capacity = 16;
  TraceSink sink(options);
  for (uint64_t t = 1; t <= 8; ++t) {
    sink.Record(MakeSpan(t, static_cast<Timestamp>(t),
                         static_cast<Timestamp>(t + 1)));
  }
  const auto recent = sink.Recent(/*max=*/3);
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_GE(recent[0].last_end_us, recent[1].last_end_us);
  EXPECT_GE(recent[1].last_end_us, recent[2].last_end_us);
}

TEST(TraceSinkTest, EvictionRetainsSlowestTraces) {
  TraceSink::Options options;
  options.recent_capacity = 8;  // 1 per stripe
  TraceSink sink(options);
  // One very slow trace, then a flood sharing its stripe to evict it.
  // Stripe = trace_id % 8, so ids congruent mod 8 collide.
  sink.Record(MakeSpan(8, 0, 1000000));
  for (uint64_t t = 1; t <= 32; ++t) {
    sink.Record(MakeSpan(8 * t + 8, 0, 10));
  }
  EXPECT_GT(sink.traces_evicted(), 0);
  const auto slowest = sink.Slowest();
  ASSERT_FALSE(slowest.empty());
  EXPECT_EQ(slowest.front().trace_id, 8u);
  EXPECT_EQ(slowest.front().duration_us(), 1000000);
}

TEST(TraceSinkTest, PerTraceSpanCapIsEnforced) {
  TraceSink::Options options;
  options.max_spans_per_trace = 4;
  TraceSink sink(options);
  for (int i = 0; i < 10; ++i) sink.Record(MakeSpan(5, i, i + 1));
  const auto recent = sink.Recent();
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_EQ(recent.front().spans.size(), 4u);
  EXPECT_EQ(sink.spans_dropped(), 6);
}

TEST(TraceSinkTest, ConcurrentRecordIsSafeAndLossless) {
  TraceSink::Options options;
  options.recent_capacity = 1024;
  options.max_spans_per_trace = 100000;
  TraceSink sink(options);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        // 64 distinct traces shared across threads.
        sink.Record(MakeSpan(1 + (i % 64), i, i + 1));
      }
      (void)t;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(sink.spans_recorded(), kThreads * kSpansPerThread);
  size_t total_spans = 0;
  for (const auto& record : sink.Recent()) total_spans += record.spans.size();
  EXPECT_EQ(total_spans,
            static_cast<size_t>(kThreads) * kSpansPerThread);
}

TEST(TraceSinkTest, SlowestMergesPerStripeCandidates) {
  // Each stripe keeps its own slowest candidates (no sink-wide list);
  // Slowest() merges them, slowest first.
  TraceSink::Options options;
  options.recent_capacity = 8;  // one recent slot per stripe
  TraceSink sink(options);
  static_assert(TraceSink::kSlowestCapacity == 16);  // two per stripe
  // Traces 1..16 take durations 100..1600; traces 17..32 evict them,
  // and are too fast to displace any of them from the slowest set.
  for (uint64_t t = 1; t <= 16; ++t) {
    sink.Record(MakeSpan(t, 0, static_cast<Timestamp>(t) * 100));
  }
  for (uint64_t t = 17; t <= 32; ++t) sink.Record(MakeSpan(t, 0, 1));
  EXPECT_EQ(sink.traces_evicted(), 24);
  const auto slowest = sink.Slowest();
  ASSERT_EQ(slowest.size(), TraceSink::kSlowestCapacity);
  for (size_t i = 0; i < slowest.size(); ++i) {
    EXPECT_EQ(slowest[i].trace_id, 16 - i);
  }
}

TEST(TraceSinkTest, SpansPastInlineCapacityKeepTheirOrderAndFields) {
  TraceSink sink;
  const SpanLabel label = sink.Label(/*machine=*/3, "count");
  std::vector<uint64_t> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(sink.Record(TraceContext{42, 7}, SpanKind::kSlateFetch,
                              label, i * 10, i * 10 + 5, SpanNote::kStore));
  }
  const auto recent = sink.Recent();
  ASSERT_EQ(recent.size(), 1u);
  ASSERT_EQ(recent[0].spans.size(), 20u);
  EXPECT_EQ(recent[0].first_start_us, 0);
  EXPECT_EQ(recent[0].last_end_us, 195);
  for (size_t i = 0; i < ids.size(); ++i) {
    const Span& s = recent[0].spans[i];
    EXPECT_EQ(s.span_id, ids[i]);
    EXPECT_EQ(s.trace_id, 42u);
    EXPECT_EQ(s.parent_span, 7u);
    EXPECT_EQ(s.kind, SpanKind::kSlateFetch);
    EXPECT_EQ(s.machine, 3);
    EXPECT_EQ(s.name, "count");
    EXPECT_EQ(s.note, "store");
    EXPECT_EQ(s.start_us, static_cast<Timestamp>(i) * 10);
    EXPECT_EQ(s.duration_us(), 5);
  }
}

TEST(TraceSinkTest, LabelsAreInternedPerMachineAndName) {
  TraceSink sink;
  const SpanLabel a = sink.Label(0, "count");
  EXPECT_EQ(sink.Label(0, "count"), a);
  EXPECT_NE(sink.Label(1, "count"), a);
  EXPECT_NE(sink.Label(0, "->m1"), a);
  // Label 0 is what a default Span carries.
  EXPECT_EQ(sink.Label(-1, ""), 0);
}

// Records `traces` count-m2-shaped traces of three spans each (queue wait,
// update exec, slate fetch) through the engine's label path.
void RecordCountTraces(TraceSink* sink, uint64_t first_seq, int traces) {
  const SpanLabel label = sink->Label(1, "count");
  for (int i = 0; i < traces; ++i) {
    const uint64_t seq = first_seq + static_cast<uint64_t>(i);
    const TraceContext context{MakeTraceId(seq, seq), 1};
    const Timestamp t = static_cast<Timestamp>(seq) * 100;
    const uint64_t exec =
        sink->Record(context, SpanKind::kQueueWait, label, t, t + 20);
    sink->Record(context, SpanKind::kUpdateExec, label, t + 20, t + 60);
    sink->Record(TraceContext{context.trace_id, exec}, SpanKind::kSlateFetch,
                 label, t + 25, t + 30, SpanNote::kHit);
  }
}

TEST(TraceSinkTest, RetainedBytesAtDefaults) {
  // The default sink (256 recent + 16 slowest traces) holding ~3-span
  // traces fits in 40 KiB: 32-byte span records in preallocated slots.
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  const size_t before = testing::HeapInUse();
  auto sink = std::make_unique<TraceSink>();
  for (uint64_t seq = 1; seq <= 4096; ++seq) {
    Span span;
    span.trace_id = MakeTraceId(seq, seq);
    span.machine = 1;
    span.name = "count";
    span.start_us = static_cast<Timestamp>(seq) * 100;
    span.end_us = span.start_us + 20;
    for (SpanKind kind : {SpanKind::kQueueWait, SpanKind::kUpdateExec,
                          SpanKind::kSlateFetch}) {
      span.span_id = NextSpanId();
      span.kind = kind;
      span.note = kind == SpanKind::kSlateFetch ? "hit" : "";
      sink->Record(span);
    }
  }
  const size_t used = testing::HeapInUse() - before;
  size_t spans = 0;
  for (const auto& r : sink->Recent()) spans += r.spans.size();
  for (const auto& r : sink->Slowest()) spans += r.spans.size();
  EXPECT_EQ(spans, 272u * 3);
  EXPECT_LE(used, 40u * 1024) << used / spans << " B per retained span";
}

TEST(TraceSinkTest, RecordingIntoFullSinkAllocatesNothing) {
  MUPPET_SKIP_WITHOUT_HEAP_ACCOUNTING();
  TraceSink sink;
  RecordCountTraces(&sink, 1, 4096);  // every slot taken
  const size_t before = testing::HeapInUse();
  RecordCountTraces(&sink, 100000, 4096);
  EXPECT_EQ(testing::HeapInUse(), before);
  EXPECT_EQ(sink.spans_recorded(), 2 * 4096 * 3);
}

TEST(ScopedSpanTest, RecordsOnDestruction) {
  TraceSink sink;
  SimulatedClock clock(100);
  {
    ScopedSpan span;
    span.Begin(&sink, &clock, TraceContext{77, 3}, SpanKind::kUpdateExec,
               /*machine=*/2, "count");
    EXPECT_NE(span.span_id(), 0u);
    span.set_note("hit");
    clock.Advance(50);
  }
  const auto recent = sink.Recent();
  ASSERT_EQ(recent.size(), 1u);
  const Span& s = recent.front().spans.front();
  EXPECT_EQ(s.trace_id, 77u);
  EXPECT_EQ(s.parent_span, 3u);
  EXPECT_EQ(s.kind, SpanKind::kUpdateExec);
  EXPECT_EQ(s.machine, 2);
  EXPECT_EQ(s.name, "count");
  EXPECT_EQ(s.note, "hit");
  EXPECT_EQ(s.start_us, 100);
  EXPECT_EQ(s.end_us, 150);
}

TEST(ScopedSpanTest, DisarmedWhenUnsampledOrNoSink) {
  TraceSink sink;
  SimulatedClock clock;
  ScopedSpan unsampled;
  unsampled.Begin(&sink, &clock, TraceContext{}, SpanKind::kMapExec, 0, "f");
  EXPECT_EQ(unsampled.span_id(), 0u);
  ScopedSpan no_sink;
  no_sink.Begin(nullptr, &clock, TraceContext{1, 0}, SpanKind::kMapExec, 0,
                "f");
  EXPECT_EQ(no_sink.span_id(), 0u);
  unsampled.End();
  no_sink.End();
  EXPECT_TRUE(sink.Recent().empty());
}

TEST(ScopedSpanTest, ExplicitEndRecordsOnce) {
  TraceSink sink;
  SimulatedClock clock;
  ScopedSpan span;
  span.Begin(&sink, &clock, TraceContext{9, 0}, SpanKind::kNetHop, 0, "->m1");
  span.End();
  span.End();  // no-op
  EXPECT_EQ(sink.spans_recorded(), 1);
}

}  // namespace
}  // namespace muppet
