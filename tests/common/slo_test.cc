#include "common/slo.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace muppet {
namespace {

Span MakeSpan(uint64_t trace_id, uint64_t span_id, SpanKind kind,
              Timestamp start, Timestamp end, const std::string& name = "",
              uint64_t parent = 0, int32_t machine = 0) {
  Span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span = parent;
  span.kind = kind;
  span.machine = machine;
  span.name = name;
  span.start_us = start;
  span.end_us = end;
  return span;
}

// A canonical trace: publish on m0, net hop, queue wait + exec with a
// nested slate fetch on m1.
std::vector<Span> CanonicalTrace(uint64_t trace_id) {
  std::vector<Span> spans;
  spans.push_back(
      MakeSpan(trace_id, 1, SpanKind::kPublish, 0, 100, "clicks", 0, 0));
  spans.push_back(
      MakeSpan(trace_id, 2, SpanKind::kNetHop, 100, 150, "->m1", 1, 0));
  spans.push_back(
      MakeSpan(trace_id, 3, SpanKind::kQueueWait, 150, 400, "count", 2, 1));
  spans.push_back(
      MakeSpan(trace_id, 4, SpanKind::kUpdateExec, 400, 900, "count", 3, 1));
  spans.push_back(MakeSpan(trace_id, 5, SpanKind::kSlateFetch, 450, 650,
                           "count", /*parent=*/4, 1));
  return spans;
}

TEST(CriticalPathTest, EmptySpansYieldZeroPath) {
  const CriticalPath path = ComputeCriticalPath({});
  EXPECT_EQ(path.total_us, 0);
  EXPECT_EQ(path.spans, 0);
  EXPECT_TRUE(path.stream.empty());
}

TEST(CriticalPathTest, AttributesEveryBucketAndSumsToTotal) {
  const CriticalPath path = ComputeCriticalPath(CanonicalTrace(42));
  EXPECT_EQ(path.trace_id, 42u);
  EXPECT_EQ(path.stream, "clicks");
  EXPECT_EQ(path.total_us, 900);
  EXPECT_EQ(path.publish_us, 100);
  EXPECT_EQ(path.net_hop_us, 50);
  EXPECT_EQ(path.queue_wait_us, 250);
  // Exec (500) exclusive of the nested fetch (200).
  EXPECT_EQ(path.exec_us, 300);
  EXPECT_EQ(path.slate_fetch_us, 200);
  EXPECT_EQ(path.unattributed_us, path.total_us - 100 - 50 - 250 - 300 - 200);
  EXPECT_EQ(path.publish_us + path.queue_wait_us + path.exec_us +
                path.slate_fetch_us + path.net_hop_us + path.unattributed_us,
            path.total_us);
  EXPECT_EQ(path.spans, 5);
  EXPECT_EQ(path.machines, 2);
}

TEST(CriticalPathTest, NonNestedFetchIsNotDeductedFromExec) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(7, 1, SpanKind::kPublish, 0, 10, "s"));
  spans.push_back(MakeSpan(7, 2, SpanKind::kUpdateExec, 10, 110, "u", 1));
  // Fetch parented to the publish span, not the exec span.
  spans.push_back(MakeSpan(7, 3, SpanKind::kSlateFetch, 120, 160, "u", 1));
  const CriticalPath path = ComputeCriticalPath(spans);
  EXPECT_EQ(path.exec_us, 100);
  EXPECT_EQ(path.slate_fetch_us, 40);
}

TEST(CriticalPathTest, OverlappingSpansOfOneKindCountOnce) {
  // Two fully overlapping exec spans share one stretch of wall time.
  std::vector<Span> spans;
  spans.push_back(MakeSpan(9, 1, SpanKind::kUpdateExec, 0, 100, "a"));
  spans.push_back(MakeSpan(9, 2, SpanKind::kUpdateExec, 0, 100, "b"));
  const CriticalPath path = ComputeCriticalPath(spans);
  EXPECT_EQ(path.total_us, 100);
  EXPECT_EQ(path.exec_us, 100);
  EXPECT_EQ(path.unattributed_us, 0);
}

// A publish span still open while its event waits in a queue, with a net
// hop overlapping both: each stretch goes to one bucket by precedence
// (queue wait > net hop > publish), and the buckets partition total_us.
TEST(SloTest, CriticalPathBucketsPartitionTotalWithOverlappingSpans) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(13, 1, SpanKind::kPublish, 0, 300, "clicks"));
  spans.push_back(MakeSpan(13, 2, SpanKind::kNetHop, 50, 350, "->m1", 1));
  spans.push_back(MakeSpan(13, 3, SpanKind::kQueueWait, 100, 400, "c", 2));
  spans.push_back(MakeSpan(13, 4, SpanKind::kUpdateExec, 400, 500, "c", 3));
  // A second update after a 100us scheduling gap.
  spans.push_back(MakeSpan(13, 5, SpanKind::kUpdateExec, 600, 700, "c", 3));
  const CriticalPath path = ComputeCriticalPath(spans);
  EXPECT_EQ(path.stream, "clicks");
  EXPECT_EQ(path.total_us, 700);
  EXPECT_EQ(path.publish_us, 50);
  EXPECT_EQ(path.net_hop_us, 50);
  EXPECT_EQ(path.queue_wait_us, 300);
  EXPECT_EQ(path.exec_us, 200);
  EXPECT_EQ(path.slate_fetch_us, 0);
  EXPECT_EQ(path.unattributed_us, 100);
  EXPECT_EQ(path.publish_us + path.queue_wait_us + path.exec_us +
                path.slate_fetch_us + path.net_hop_us + path.unattributed_us,
            path.total_us);
}

// A slate fetch not nested in an exec span but overlapping one is charged
// to exec (exec outranks a plain fetch); a nested one outranks exec.
TEST(CriticalPathTest, FetchOverlappingExecFollowsPrecedence) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(15, 1, SpanKind::kUpdateExec, 0, 100, "u"));
  spans.push_back(MakeSpan(15, 2, SpanKind::kSlateFetch, 20, 40, "u", 1));
  spans.push_back(MakeSpan(15, 3, SpanKind::kSlateFetch, 50, 150, "u", 9));
  const CriticalPath path = ComputeCriticalPath(spans);
  EXPECT_EQ(path.total_us, 150);
  EXPECT_EQ(path.exec_us, 80);
  EXPECT_EQ(path.slate_fetch_us, 70);
  EXPECT_EQ(path.unattributed_us, 0);
}

TEST(CriticalPathTest, MissingPublishLeavesStreamEmpty) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(11, 1, SpanKind::kUpdateExec, 0, 50, "count"));
  EXPECT_TRUE(ComputeCriticalPath(spans).stream.empty());
}

SloOptions TwoSecondObjective() {
  SloOptions options;
  SloObjective objective;
  objective.stream = "clicks";
  objective.target_p99_us = 2 * kMicrosPerSecond;
  objective.window_micros = kMicrosPerMinute;
  options.objectives.push_back(objective);
  return options;
}

TEST(SloTrackerTest, ObserveRecordsPercentilesAndBreaches) {
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  // 9 fast traces, 1 slow breach.
  for (uint64_t i = 0; i < 9; ++i) {
    std::vector<Span> spans;
    spans.push_back(
        MakeSpan(i + 1, 1, SpanKind::kPublish, 0, 1000, "clicks"));
    tracker.Observe(i + 1, spans, /*now=*/kMicrosPerSecond);
  }
  std::vector<Span> slow;
  slow.push_back(MakeSpan(100, 1, SpanKind::kPublish, 0,
                          3 * kMicrosPerSecond, "clicks"));
  tracker.Observe(100, slow, /*now=*/kMicrosPerSecond);

  const auto snaps = tracker.Snapshot(kMicrosPerSecond);
  ASSERT_EQ(snaps.size(), 1u);
  const auto& snap = snaps[0];
  EXPECT_EQ(snap.stream, "clicks");
  EXPECT_EQ(snap.events, 10);
  EXPECT_EQ(snap.breaches, 1);
  EXPECT_TRUE(snap.has_objective);
  EXPECT_GE(snap.p999_us, snap.p99_us);
  EXPECT_GE(snap.max_us, 3 * kMicrosPerSecond);
  // p99 lands in the slow trace's bucket: objective missed.
  EXPECT_FALSE(snap.meeting_objective);
  EXPECT_EQ(tracker.traces_observed(), 10);
  EXPECT_EQ(tracker.traces_unattributed(), 0);
}

TEST(SloTrackerTest, BurnRateIsBreachFractionOverBudget) {
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  const Timestamp now = 10 * kMicrosPerSecond;
  // 100 events, 2 breaches: 2% bad over a 1% budget = burn rate 2.0.
  for (uint64_t i = 0; i < 100; ++i) {
    const Timestamp latency =
        i < 2 ? 3 * kMicrosPerSecond : kMicrosPerMilli;
    std::vector<Span> spans;
    spans.push_back(MakeSpan(i + 1, 1, SpanKind::kPublish, 0, latency,
                             "clicks"));
    tracker.Observe(i + 1, spans, now);
  }
  const auto snaps = tracker.Snapshot(now);
  ASSERT_EQ(snaps.size(), 1u);
  ASSERT_EQ(snaps[0].burn.size(), 2u);  // default 1m + 10m windows
  EXPECT_DOUBLE_EQ(snaps[0].burn[0].rate, 2.0);
  EXPECT_EQ(snaps[0].burn[0].events, 100);
  EXPECT_EQ(snaps[0].burn[0].breaches, 2);
}

TEST(SloTrackerTest, BurnWindowForgetsOldBuckets) {
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, 1, SpanKind::kPublish, 0,
                           3 * kMicrosPerSecond, "clicks"));
  tracker.Observe(1, spans, /*now=*/kMicrosPerSecond);
  // Within the 1-minute window the breach burns budget...
  auto snaps = tracker.Snapshot(2 * kMicrosPerSecond);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_GT(snaps[0].burn[0].rate, 0.0);
  // ...two minutes later the short window has forgotten it.
  snaps = tracker.Snapshot(2 * kMicrosPerMinute + kMicrosPerSecond);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_DOUBLE_EQ(snaps[0].burn[0].rate, 0.0);
}

TEST(SloTrackerTest, WorstPathsAreBoundedAndSorted) {
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  for (uint64_t i = 1; i <= 10; ++i) {
    std::vector<Span> spans;
    spans.push_back(MakeSpan(i, 1, SpanKind::kPublish, 0,
                             static_cast<Timestamp>(i) * 100, "clicks"));
    tracker.Observe(i, spans, kMicrosPerSecond);
  }
  const auto snaps = tracker.Snapshot(kMicrosPerSecond);
  ASSERT_EQ(snaps.size(), 1u);
  ASSERT_EQ(snaps[0].worst.size(), SloTracker::kWorstPaths);
  for (size_t i = 0; i < SloTracker::kWorstPaths; ++i) {
    EXPECT_EQ(snaps[0].worst[i].total_us,
              1000 - 100 * static_cast<Timestamp>(i));
  }
}

TEST(SloTrackerTest, HarvestStitchesSpansAcrossSinks) {
  // One trace scattered over two machines' sinks: the publish span on the
  // accepting machine, the exec span on the owner.
  TraceSink sink0((TraceSink::Options()));
  TraceSink sink1((TraceSink::Options()));
  sink0.Record(MakeSpan(77, 1, SpanKind::kPublish, 0, 100, "clicks", 0, 0));
  sink1.Record(
      MakeSpan(77, 2, SpanKind::kUpdateExec, 100, 500, "count", 1, 1));

  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  tracker.Harvest({&sink0, &sink1}, /*now=*/kMicrosPerSecond);
  EXPECT_EQ(tracker.traces_observed(), 1);
  const auto snaps = tracker.Snapshot(kMicrosPerSecond);
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].stream, "clicks");
  ASSERT_EQ(snaps[0].worst.size(), 1u);
  // Stitched: total spans both machines' contributions.
  EXPECT_EQ(snaps[0].worst[0].spans, 2);
  EXPECT_EQ(snaps[0].worst[0].machines, 2);
  EXPECT_EQ(snaps[0].worst[0].total_us, 500);
}

TEST(SloTrackerTest, HarvestIsIdempotent) {
  TraceSink sink((TraceSink::Options()));
  for (const Span& span : CanonicalTrace(5)) sink.Record(span);
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  tracker.Harvest({&sink}, kMicrosPerSecond);
  tracker.Harvest({&sink}, 2 * kMicrosPerSecond);
  tracker.Harvest({&sink}, 3 * kMicrosPerSecond);
  EXPECT_EQ(tracker.traces_observed(), 1);
}

TEST(SloTrackerTest, HarvestDefersUnsettledTraces) {
  TraceSink sink((TraceSink::Options()));
  sink.Record(MakeSpan(3, 1, SpanKind::kPublish, 0, 100, "clicks"));

  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  // Trace ended at t=100us; harvesting inside the settle window must not
  // observe it (a late span could still arrive)...
  tracker.Harvest({&sink}, /*now=*/200);
  EXPECT_EQ(tracker.traces_observed(), 0);
  // ...but once the settle window elapses it is picked up.
  tracker.Harvest({&sink}, 100 + SloTracker::kSettleMicros);
  EXPECT_EQ(tracker.traces_observed(), 1);
}

TEST(SloTrackerTest, DrainedShortCircuitsSettleWindow) {
  TraceSink sink((TraceSink::Options()));
  sink.Record(MakeSpan(4, 1, SpanKind::kPublish, 0, 100, "clicks"));
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  // now is inside the settle window, but drained means no trace can grow.
  tracker.Harvest({&sink}, /*now=*/150, /*drained=*/true);
  EXPECT_EQ(tracker.traces_observed(), 1);
}

TEST(SloTrackerTest, HarvestMarkFollowsTraceIntoSlowest) {
  // The harvest mark lives in the sink's trace slot, so it moves with a
  // trace evicted from the recent ring into the slowest set, and the
  // tracker keeps no memory of observed ids.
  TraceSink::Options sink_options;
  sink_options.recent_capacity = 8;  // one recent slot per stripe
  TraceSink sink(sink_options);
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  // Traces 8 and 16 share a stripe (trace_id % 8); 8 is the slow one.
  sink.Record(MakeSpan(8, 1, SpanKind::kPublish, 0, 5000, "clicks"));
  tracker.Harvest({&sink}, kMicrosPerSecond, /*drained=*/true);
  EXPECT_EQ(tracker.traces_observed(), 1);

  sink.Record(MakeSpan(16, 2, SpanKind::kPublish, 0, 10, "clicks"));
  const auto slowest = sink.Slowest();
  ASSERT_EQ(slowest.size(), 1u);
  EXPECT_EQ(slowest.front().trace_id, 8u);
  EXPECT_TRUE(slowest.front().harvested);
  tracker.Harvest({&sink}, kMicrosPerSecond, /*drained=*/true);
  tracker.Harvest({&sink}, 2 * kMicrosPerSecond, /*drained=*/true);
  EXPECT_EQ(tracker.traces_observed(), 2);  // trace 16, once
}

TEST(SloTrackerTest, HarvestSkipsTraceMarkedInAnySink) {
  // A span that reaches a second machine's sink after its trace was
  // observed does not make the trace observable again.
  TraceSink sink0((TraceSink::Options()));
  TraceSink sink1((TraceSink::Options()));
  sink0.Record(MakeSpan(77, 1, SpanKind::kPublish, 0, 100, "clicks", 0, 0));
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  tracker.Harvest({&sink0, &sink1}, kMicrosPerSecond, /*drained=*/true);
  EXPECT_EQ(tracker.traces_observed(), 1);
  sink1.Record(
      MakeSpan(77, 2, SpanKind::kUpdateExec, 100, 500, "count", 1, 1));
  tracker.Harvest({&sink0, &sink1}, kMicrosPerSecond, /*drained=*/true);
  EXPECT_EQ(tracker.traces_observed(), 1);
}

TEST(SloTrackerTest, RegistryBackedCellsFeedMetricsFamilies) {
  MetricsRegistry registry;
  SimulatedClock clock(kMicrosPerSecond);
  SloTracker tracker(TwoSecondObjective(), &registry, &clock);
  std::vector<Span> spans;
  spans.push_back(MakeSpan(1, 1, SpanKind::kPublish, 0,
                           3 * kMicrosPerSecond, "clicks"));
  tracker.Observe(1, spans, clock.Now());

  Histogram* h = registry.GetHistogram("muppet_slo_e2e_latency_us",
                                       {{"stream", "clicks"}});
  EXPECT_EQ(h->count(), 1);
  Counter* breach = registry.GetCounter(
      "muppet_slo_events_total", {{"stream", "clicks"}, {"outcome", "breach"}});
  EXPECT_EQ(breach->Get(), 1);
  // Burn-rate callback gauges registered per configured window.
  bool found_burn = false;
  for (const auto& sample : registry.Snapshot()) {
    if (sample.name == "muppet_slo_burn_rate_milli") {
      found_burn = true;
      EXPECT_GT(sample.value, 0);  // 1 breach / 1 event = huge burn
    }
  }
  EXPECT_TRUE(found_burn);
}

TEST(SloTrackerTest, UnattributedTraceCountsAndStillObserves) {
  SloTracker tracker(TwoSecondObjective(), nullptr, nullptr);
  std::vector<Span> spans;
  spans.push_back(MakeSpan(6, 1, SpanKind::kUpdateExec, 0, 50, "count"));
  tracker.Observe(6, spans, kMicrosPerSecond);
  EXPECT_EQ(tracker.traces_observed(), 1);
  EXPECT_EQ(tracker.traces_unattributed(), 1);
}

}  // namespace
}  // namespace muppet
