// End-to-end checks of the tracing tentpole: trace context survives the
// routed-event frame codec (a frame of one, as 1.0 sends, and a batch),
// and a sampled event's full path — publish, queue wait, operator exec,
// slate fetch, cross-machine hop, downstream operator — can be
// reconstructed from the per-machine trace sinks.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/trace.h"
#include "engine/muppet1.h"
#include "engine/muppet2.h"
#include "engine/wire.h"
#include "gtest/gtest.h"
#include "tests/engine/engine_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using ::muppet::testing::BuildCountingApp;
using ::muppet::testing::BuildFanoutApp;

// A frame of one: how Muppet 1.0 sends every event.
TEST(TraceWireTest, SingleEventCodecRoundTripsTraceContext) {
  RoutedEvent re;
  re.function_id = 3;
  re.work = 0x5eed;
  re.event.stream = "in";
  re.event.key.assign("k");
  re.event.value.assign("v");
  re.event.ts = 7;
  re.event.trace.trace_id = 0xABCDEF0123456789ULL;
  re.event.trace.parent_span = 42;

  Bytes wire;
  EncodeRoutedEventFrame({&re, 1}, &wire);
  RoutedEventFrameReader reader(wire);
  RoutedEvent decoded;
  ASSERT_TRUE(reader.Next(&decoded));
  EXPECT_EQ(decoded.function_id, 3);
  EXPECT_EQ(decoded.work, 0x5eedu);
  EXPECT_TRUE(decoded.event.trace == re.event.trace);
  EXPECT_FALSE(reader.Next(&decoded));
  EXPECT_FALSE(reader.corrupt());
}

TEST(TraceWireTest, UntracedEventsRoundTripWithZeroContext) {
  RoutedEvent re;
  re.function_id = 0;
  re.event.stream = "in";
  Bytes wire;
  EncodeRoutedEventFrame({&re, 1}, &wire);
  RoutedEventFrameReader reader(wire);
  RoutedEvent decoded;
  decoded.event.trace.trace_id = 999;  // must be overwritten
  ASSERT_TRUE(reader.Next(&decoded));
  EXPECT_FALSE(decoded.event.trace.sampled());
  EXPECT_EQ(decoded.event.trace.parent_span, 0u);
}

TEST(TraceWireTest, BatchFrameRoundTripsTraceContextPerEvent) {
  std::vector<RoutedEvent> batch(3);
  for (size_t i = 0; i < batch.size(); ++i) {
    batch[i].function_id = static_cast<int32_t>(i);
    batch[i].work = 100 + i;
    batch[i].event.stream = "in";
    batch[i].event.key.assign("k" + std::to_string(i));
  }
  batch[1].event.trace.trace_id = 77;  // only the middle event is traced
  batch[1].event.trace.parent_span = 5;

  Bytes frame;
  EncodeRoutedEventFrame(batch, &frame);
  RoutedEventFrameReader reader(frame);
  RoutedEvent out;
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_FALSE(out.event.trace.sampled());
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_EQ(out.event.trace.trace_id, 77u);
  EXPECT_EQ(out.event.trace.parent_span, 5u);
  ASSERT_TRUE(reader.Next(&out));
  EXPECT_FALSE(out.event.trace.sampled());
  EXPECT_FALSE(reader.Next(&out));
  EXPECT_FALSE(reader.corrupt());
}

// The fault signature must not see the trace context: whether an event is
// sampled can never change which faults it draws (chaos determinism).
TEST(TraceWireTest, FaultSignatureIgnoresTraceContext) {
  RoutedEvent a;
  a.work = 0x5eed;
  a.event.stream = "in";
  a.event.key.assign("k");
  RoutedEvent b = a;
  b.event.trace.trace_id = 123;
  b.event.trace.parent_span = 456;
  EXPECT_EQ(EventFaultSignature(a), EventFaultSignature(b));
}

// Gather every machine's spans, grouped by trace id.
std::map<uint64_t, std::vector<Span>> CollectSpans(Engine& engine,
                                                   int num_machines) {
  std::map<uint64_t, std::vector<Span>> by_trace;
  for (MachineId m = 0; m < num_machines; ++m) {
    TraceSink* sink = engine.trace_sink(m);
    if (sink == nullptr) continue;
    for (const auto& record : sink->Recent()) {
      for (const Span& span : record.spans) {
        by_trace[span.trace_id].push_back(span);
      }
    }
  }
  return by_trace;
}

bool HasKind(const std::vector<Span>& spans, SpanKind kind) {
  for (const Span& s : spans) {
    if (s.kind == kind) return true;
  }
  return false;
}

TEST(TraceIntegrationTest, Muppet2FullPathReconstruction) {
  AppConfig config;
  BuildFanoutApp(&config);  // in -> split (mapper, x2) -> count (updater)
  EngineOptions options;
  options.num_machines = 2;
  options.threads_per_machine = 2;
  options.trace.sample_period = 1;  // trace everything
  options.trace.recent_traces = 1024;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  constexpr int kKeys = 16;
  for (int i = 0; i < 64; ++i) {
    ASSERT_OK(
        engine.Publish("in", "key" + std::to_string(i % kKeys), "", i + 1));
  }
  ASSERT_OK(engine.Drain());

  const auto by_trace = CollectSpans(engine, 2);
  EXPECT_EQ(by_trace.size(), 64u);  // every publish became a trace

  bool saw_cross_machine_path = false;
  for (const auto& [trace_id, spans] : by_trace) {
    // Exactly one root: the external publish, machine 0, no parent.
    int roots = 0;
    uint64_t root_id = 0;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kPublish) {
        ++roots;
        root_id = s.span_id;
        EXPECT_EQ(s.parent_span, 0u);
        EXPECT_EQ(s.machine, 0);
        EXPECT_EQ(s.name, "in");
      }
    }
    ASSERT_EQ(roots, 1) << "trace " << trace_id;

    // The pipeline ran: queue waits, a mapper exec parented to the root,
    // updater execs parented to the mapper exec, slate fetches parented
    // to an updater exec.
    EXPECT_TRUE(HasKind(spans, SpanKind::kQueueWait));
    std::set<uint64_t> map_execs;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kMapExec) {
        EXPECT_EQ(s.parent_span, root_id);
        EXPECT_EQ(s.name, "split");
        map_execs.insert(s.span_id);
      }
    }
    EXPECT_FALSE(map_execs.empty());
    std::set<uint64_t> update_execs;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kUpdateExec) {
        EXPECT_TRUE(map_execs.count(s.parent_span) == 1)
            << "updater exec must parent to the mapper exec that emitted "
               "its event";
        EXPECT_EQ(s.name, "count");
        update_execs.insert(s.span_id);
      }
    }
    EXPECT_FALSE(update_execs.empty());
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kSlateFetch) {
        EXPECT_TRUE(update_execs.count(s.parent_span) == 1);
        EXPECT_FALSE(s.note.empty());
      }
    }

    // A trace with a net hop must show activity on the hop's destination
    // machine: the reconstructed path crosses >= 2 machines.
    for (const Span& hop : spans) {
      if (hop.kind != SpanKind::kNetHop) continue;
      ASSERT_EQ(hop.name.substr(0, 3), "->m");
      const int dest = std::stoi(hop.name.substr(3));
      EXPECT_NE(dest, hop.machine);
      for (const Span& s : spans) {
        if (s.machine == dest && (s.kind == SpanKind::kQueueWait ||
                                  s.kind == SpanKind::kMapExec ||
                                  s.kind == SpanKind::kUpdateExec)) {
          saw_cross_machine_path = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_cross_machine_path)
      << "expected at least one trace whose path crosses two machines";
  ASSERT_OK(engine.Stop());
}

TEST(TraceIntegrationTest, Muppet1RecordsAllSpanKinds) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 2;
  options.workers_per_function = 2;
  options.trace.sample_period = 1;
  options.trace.recent_traces = 1024;
  Muppet1Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 32; ++i) {
    ASSERT_OK(engine.Publish("in", "key" + std::to_string(i % 8), "", i + 1));
  }
  ASSERT_OK(engine.Drain());

  const auto by_trace = CollectSpans(engine, 2);
  EXPECT_EQ(by_trace.size(), 32u);
  bool saw_net_hop = false;
  for (const auto& [trace_id, spans] : by_trace) {
    EXPECT_TRUE(HasKind(spans, SpanKind::kPublish)) << trace_id;
    EXPECT_TRUE(HasKind(spans, SpanKind::kQueueWait)) << trace_id;
    EXPECT_TRUE(HasKind(spans, SpanKind::kUpdateExec)) << trace_id;
    EXPECT_TRUE(HasKind(spans, SpanKind::kSlateFetch)) << trace_id;
    if (HasKind(spans, SpanKind::kNetHop)) saw_net_hop = true;
    // Slate fetches hang off the updater exec.
    std::set<uint64_t> update_execs;
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kUpdateExec) update_execs.insert(s.span_id);
    }
    for (const Span& s : spans) {
      if (s.kind == SpanKind::kSlateFetch) {
        EXPECT_TRUE(update_execs.count(s.parent_span) == 1);
      }
    }
  }
  EXPECT_TRUE(saw_net_hop)
      << "with 2 machines some events must hop off the publisher machine";
  ASSERT_OK(engine.Stop());
}

TEST(TraceIntegrationTest, SamplingIsContentBasedAndDeterministic) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 1;
  options.threads_per_machine = 2;
  options.trace.sample_period = 4;
  options.trace.recent_traces = 1024;
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  constexpr int kKeys = 64;
  int expected = 0;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "key" + std::to_string(i);
    if (TraceSampled(Fnv1a64(key), 4)) ++expected;
    ASSERT_OK(engine.Publish("in", key, "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  ASSERT_GT(expected, 0);
  ASSERT_LT(expected, kKeys);
  const auto by_trace = CollectSpans(engine, 1);
  // Exactly the content-sampled keys were traced — the same set a chaos
  // replay of this workload would trace.
  EXPECT_EQ(by_trace.size(), static_cast<size_t>(expected));
  ASSERT_OK(engine.Stop());
}

TEST(TraceIntegrationTest, TracingDisabledRecordsNothing) {
  AppConfig config;
  BuildCountingApp(&config);
  EngineOptions options;
  options.num_machines = 1;
  options.threads_per_machine = 1;
  options.trace.sample_period = 0;  // disabled
  Muppet2Engine engine(config, options);
  ASSERT_OK(engine.Start());
  for (int i = 0; i < 16; ++i) {
    ASSERT_OK(engine.Publish("in", "k", "", i + 1));
  }
  ASSERT_OK(engine.Drain());
  EXPECT_EQ(engine.trace_sink(0), nullptr);
  ASSERT_OK(engine.Stop());
}

}  // namespace
}  // namespace muppet
