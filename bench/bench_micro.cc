// Micro-benchmarks (google-benchmark) for the primitives the engines lean
// on: event wire codec, slate compression, JSON slate round-trips, hash
// ring routing, queue operations, the slate cache, the kvstore memtable,
// trace span recording, and the 1.0 task-processor protocol.
// These quantify the §4.5 argument that eliminating serialization inside
// a machine is worth a generation bump.
#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <cstdio>
#include <string>
#include <vector>

#include "common/compress.h"
#include "common/hash.h"
#include "common/trace.h"
#include "core/event.h"
#include "core/hash_ring.h"
#include "core/intern.h"
#include "core/slate.h"
#include "core/slate_cache.h"
#include "engine/queue.h"
#include "engine/wire.h"
#include "json/json.h"
#include "kvstore/memtable.h"

namespace muppet {
namespace {

Event MakeEvent(size_t value_bytes) {
  Event e;
  e.stream = "S2";
  e.ts = 1234567890;
  e.key = "user1234567";
  e.value = Bytes(value_bytes, 'v');
  e.seq = 42;
  e.origin_ts = 1234567000;
  return e;
}

void BM_EventEncode(benchmark::State& state) {
  const Event e = MakeEvent(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    Bytes wire;
    EncodeEvent(e, &wire);
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventEncode)->Arg(100)->Arg(1000)->Arg(10000);

void BM_EventDecode(benchmark::State& state) {
  const Event e = MakeEvent(static_cast<size_t>(state.range(0)));
  Bytes wire;
  EncodeEvent(e, &wire);
  for (auto _ : state) {
    Event decoded;
    benchmark::DoNotOptimize(DecodeEvent(wire, &decoded));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EventDecode)->Arg(100)->Arg(1000)->Arg(10000);

Bytes MakeJsonSlateBytes(int fields) {
  Json j = Json::MakeObject();
  for (int i = 0; i < fields; ++i) {
    j["counter_field_" + std::to_string(i)] = 123456 + i;
  }
  return j.Dump();
}

void BM_SlateCompress(benchmark::State& state) {
  const Bytes slate = MakeJsonSlateBytes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    Bytes compressed;
    CompressBytes(slate, &compressed);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(slate.size()));
}
BENCHMARK(BM_SlateCompress)->Arg(10)->Arg(100)->Arg(1000);

void BM_SlateDecompress(benchmark::State& state) {
  const Bytes slate = MakeJsonSlateBytes(static_cast<int>(state.range(0)));
  const Bytes compressed = Compress(slate);
  for (auto _ : state) {
    Bytes restored;
    benchmark::DoNotOptimize(DecompressBytes(compressed, &restored));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(slate.size()));
}
BENCHMARK(BM_SlateDecompress)->Arg(10)->Arg(100)->Arg(1000);

void BM_JsonSlateUpdateCycle(benchmark::State& state) {
  // The canonical updater body: parse slate, bump counter, serialize.
  Bytes slate = MakeJsonSlateBytes(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    JsonSlate s(&slate);
    s.data()["counter_field_0"] = s.data().GetInt("counter_field_0") + 1;
    slate = s.Serialize();
  }
  benchmark::DoNotOptimize(slate);
}
BENCHMARK(BM_JsonSlateUpdateCycle)->Arg(1)->Arg(10)->Arg(100);

void BM_HashRingRoute(benchmark::State& state) {
  HashRing ring;
  for (int m = 0; m < static_cast<int>(state.range(0)); ++m) {
    ring.AddWorker("U1", WorkerRef{m, 0});
  }
  const std::set<MachineId> no_failures;
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ring.Route("U1", "key" + std::to_string(i++ % 1000), no_failures));
  }
}
BENCHMARK(BM_HashRingRoute)->Arg(4)->Arg(16)->Arg(64);

void BM_QueuePushPop(benchmark::State& state) {
  EventQueue queue(1 << 16);
  RoutedEvent re;
  re.function_id = 0;
  re.work = 1;
  re.event = MakeEvent(100);
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.TryPush(re));
    RoutedEvent out;
    benchmark::DoNotOptimize(queue.Pop(&out));
  }
}
BENCHMARK(BM_QueuePushPop);

void BM_QueuePushPopBatch(benchmark::State& state) {
  // Batched counterpart of BM_QueuePushPop, shaped like a 2.0 lane: the
  // dispatcher pushes events one at a time (TryPushMove), the worker pops
  // up to `batch` per lock acquisition. Per-event cost should drop with
  // batch size on the pop side only.
  const size_t batch = static_cast<size_t>(state.range(0));
  EventQueue queue(1 << 16);
  std::vector<RoutedEvent> in;
  for (size_t i = 0; i < batch; ++i) {
    RoutedEvent re;
    re.function_id = 0;
    re.work = i + 1;
    re.event = MakeEvent(100);
    in.push_back(std::move(re));
  }
  std::vector<RoutedEvent> out;
  out.reserve(batch);
  for (auto _ : state) {
    for (RoutedEvent& re : in) {
      benchmark::DoNotOptimize(queue.TryPushMove(&re));
    }
    benchmark::DoNotOptimize(queue.PopBatch(&out, batch));
    std::swap(in, out);  // popped events become the next push batch
    out.clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_QueuePushPopBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_RoutedEventFrameRoundTrip(benchmark::State& state) {
  // The 2.0 cross-machine format: id-addressed events coalesced into one
  // frame per destination.
  const size_t batch = static_cast<size_t>(state.range(0));
  std::vector<RoutedEvent> events;
  for (size_t i = 0; i < batch; ++i) {
    RoutedEvent re;
    re.function_id = static_cast<int32_t>(i % 4);
    re.work = i + 1;
    re.event = MakeEvent(100);
    events.push_back(std::move(re));
  }
  for (auto _ : state) {
    Bytes frame;
    EncodeRoutedEventFrame(events, &frame);
    RoutedEventFrameReader reader(frame);
    RoutedEvent re;
    while (reader.Next(&re)) benchmark::DoNotOptimize(re);
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_RoutedEventFrameRoundTrip)->Arg(1)->Arg(8)->Arg(32);

void BM_InternFind(benchmark::State& state) {
  // The per-event name resolution on the hot path: one Find per stream.
  NameInterner interner;
  for (int i = 0; i < 16; ++i) interner.Intern("stream" + std::to_string(i));
  const std::string name = "stream7";
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.Find(name));
  }
}
BENCHMARK(BM_InternFind);

// Heap bytes in use, mmapped blocks included; 0 where glibc's mallinfo2
// is unavailable.
size_t HeapInUse() {
#if defined(__GLIBC__)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

std::vector<SlateId> SlateIds(size_t n) {
  std::vector<SlateId> ids;
  ids.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.push_back(SlateId{"count", "user" + std::to_string(i)});
  }
  return ids;
}

// Fill `cache` to capacity from `ids` with `value` and report its heap
// cost per slate. The ids and a "v" value fit the small-string buffer, so
// that is the cache's own bookkeeping.
void FillAndCountBytes(benchmark::State& state, SlateCache* cache,
                       const std::vector<SlateId>& ids, size_t before,
                       BytesView value) {
  for (size_t i = 0; i < cache->capacity(); ++i) {
    (void)cache->Insert(ids[i], value);
  }
  state.counters["bytes_per_slate"] =
      static_cast<double>(HeapInUse() - before) /
      static_cast<double>(cache->capacity());
}

// The cached-slate read every updater invocation starts with (§4.2), on
// a full cache of state.range(0) slates holding `value`.
void SlateCacheHits(benchmark::State& state, BytesView value) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<SlateId> ids = SlateIds(n);
  const size_t before = HeapInUse();
  SlateCache cache({.capacity = n},
                   [](const SlateCache::DirtySlate&) { return Status::OK(); });
  FillAndCountBytes(state, &cache, ids, before, value);
  Bytes out;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Lookup(ids[i], &out));
    if (++i == n) i = 0;
  }
}

void BM_SlateCacheHit(benchmark::State& state) { SlateCacheHits(state, "v"); }
BENCHMARK(BM_SlateCacheHit)->Arg(1000)->Arg(100000);

void BM_SlateCacheHitJsonValue(benchmark::State& state) {
  // 47-byte values: a JSON user profile slate, past every small-string
  // buffer.
  SlateCacheHits(state, Bytes(47, 'v'));
}
BENCHMARK(BM_SlateCacheHitJsonValue)->Arg(1000)->Arg(100000);

void BM_SlateCacheInsertEvict(benchmark::State& state) {
  // A full cache taking a slate it does not hold: one insert, one CLOCK
  // eviction. Cycling 2n ids through capacity n makes most inserts a miss;
  // CLOCK does not keep exactly the last n, so about 9% find their slate.
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<SlateId> ids = SlateIds(2 * n);
  const size_t before = HeapInUse();
  SlateCache cache({.capacity = n},
                   [](const SlateCache::DirtySlate&) { return Status::OK(); });
  FillAndCountBytes(state, &cache, ids, before, "v");
  size_t i = n;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.Insert(ids[i], "v"));
    if (++i == ids.size()) i = 0;
  }
}
BENCHMARK(BM_SlateCacheInsertEvict)->Arg(1000)->Arg(100000);

void BM_SlateCacheUpdateGrow(benchmark::State& state) {
  // Interval-flush updates whose values grow 8 -> 16 -> 32 -> 64 bytes
  // and start over: three of every four outgrow what the slate held.
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<SlateId> ids = SlateIds(n);
  const std::vector<Bytes> values = {Bytes(8, 'v'), Bytes(16, 'v'),
                                     Bytes(32, 'v'), Bytes(64, 'v')};
  SlateCache cache({.capacity = n},
                   [](const SlateCache::DirtySlate&) { return Status::OK(); });
  for (const SlateId& id : ids) (void)cache.Insert(id, values[0]);
  size_t i = 0;
  size_t round = 1;
  Timestamp now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Update(ids[i], values[round % values.size()], ++now, false));
    if (++i == n) {
      i = 0;
      ++round;
    }
  }
}
BENCHMARK(BM_SlateCacheUpdateGrow)->Arg(1000)->Arg(100000);

// Slate-store writes as the kvstore memtable buffers them (§4.2): 20 B
// storage keys (slate key row, updater column), 33 B values, clock
// timestamps.
std::vector<kv::Record> MemTableRecords(size_t n) {
  std::vector<kv::Record> recs(n);
  for (size_t i = 0; i < n; ++i) {
    char row[32];
    std::snprintf(row, sizeof(row), "user%06zu", i);
    recs[i].key = kv::EncodeStorageKey(row, "profile_");
    recs[i].value = Bytes(33, 'v');
    recs[i].seqno = i + 1;
    recs[i].write_ts = 1'700'000'000'000'000 + static_cast<Timestamp>(i);
  }
  return recs;
}

// Fill `table` from `recs` and report its heap cost per buffered write.
void FillMemTable(benchmark::State& state, kv::MemTable* table,
                  const std::vector<kv::Record>& recs, size_t before) {
  for (const kv::Record& rec : recs) table->Put(rec);
  state.counters["bytes_per_entry"] =
      static_cast<double>(HeapInUse() - before) /
      static_cast<double>(recs.size());
}

void BM_MemTablePut(benchmark::State& state) {
  // overwrite=0: fresh keys into a table that fills to `entries` and is
  // cleared, as a flush clears it. overwrite=1: a full table taking new
  // versions of keys it holds, the coalescing E11 measures.
  const std::vector<kv::Record> recs =
      MemTableRecords(static_cast<size_t>(state.range(0)));
  const bool overwrite = state.range(1) != 0;
  const size_t before = HeapInUse();
  kv::MemTable table;
  FillMemTable(state, &table, recs, before);
  if (!overwrite) table.Clear();
  size_t i = 0;
  for (auto _ : state) {
    table.Put(recs[i]);
    if (++i == recs.size()) {
      i = 0;
      if (!overwrite) table.Clear();
    }
  }
}
BENCHMARK(BM_MemTablePut)
    ->ArgNames({"entries", "overwrite"})
    ->ArgsProduct({{1000, 100000}, {0, 1}});

void BM_MemTableGet(benchmark::State& state) {
  // The read-path check that precedes every SSTable lookup.
  const std::vector<kv::Record> recs =
      MemTableRecords(static_cast<size_t>(state.range(0)));
  const size_t before = HeapInUse();
  kv::MemTable table;
  FillMemTable(state, &table, recs, before);
  kv::Record out;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Get(recs[i].key, &out));
    if (++i == recs.size()) i = 0;
  }
}
BENCHMARK(BM_MemTableGet)->Arg(1000)->Arg(100000);

void BM_MemTableSnapshot(benchmark::State& state) {
  // The key-ordered copy a flush writes out: the memtable sorts its
  // entries here rather than on insert.
  const std::vector<kv::Record> recs =
      MemTableRecords(static_cast<size_t>(state.range(0)));
  kv::MemTable table;
  for (const kv::Record& rec : recs) table.Put(rec);
  for (auto _ : state) benchmark::DoNotOptimize(table.Snapshot());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MemTableSnapshot)->Arg(1000)->Arg(100000);

void BM_Fnv1a64(benchmark::State& state) {
  const Bytes key(static_cast<size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fnv1a64(key));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fnv1a64)->Arg(16)->Arg(256);

void BM_Crc32(benchmark::State& state) {
  const Bytes data(static_cast<size_t>(state.range(0)), 'd');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096);

// Span recording as the engines do it when every event is traced: three
// spans per trace (queue wait, update exec, slate fetch) through the label
// path into a default sink (256 recent + 16 slowest traces) kept full, so
// every new trace retires one. The threads share the sink, as a machine's
// lanes do. items/s counts spans; bytes_per_span is the sink's heap cost
// per retained span once full.
TraceSink* trace_sink_under_test = nullptr;
SpanLabel trace_label_under_test = 0;

void RecordTrace(TraceSink* sink, SpanLabel label, uint64_t seq) {
  const TraceContext context{MakeTraceId(seq, seq), 1};
  const Timestamp t = static_cast<Timestamp>(seq);
  const uint64_t exec =
      sink->Record(context, SpanKind::kUpdateExec, label, t + 1, t + 3);
  sink->Record(context, SpanKind::kQueueWait, label, t, t + 1);
  benchmark::DoNotOptimize(
      sink->Record(TraceContext{context.trace_id, exec}, SpanKind::kSlateFetch,
                   label, t + 1, t + 2, SpanNote::kHit));
}

void BM_TraceSinkRecord(benchmark::State& state) {
  constexpr uint64_t kFillTraces = 4096;
  if (state.thread_index() == 0) {
    const size_t before = HeapInUse();
    trace_sink_under_test = new TraceSink();
    trace_label_under_test = trace_sink_under_test->Label(1, "count");
    for (uint64_t seq = 1; seq <= kFillTraces; ++seq) {
      RecordTrace(trace_sink_under_test, trace_label_under_test, seq);
    }
    size_t spans = 0;
    for (const auto& record : trace_sink_under_test->Recent()) {
      spans += record.spans.size();
    }
    for (const auto& record : trace_sink_under_test->Slowest()) {
      spans += record.spans.size();
    }
    state.counters["bytes_per_span"] =
        static_cast<double>(HeapInUse() - before) /
        static_cast<double>(spans);
  }
  // Thread 0's setup is visible past the barrier the loop starts with.
  uint64_t seq = (static_cast<uint64_t>(state.thread_index()) + 1) << 40;
  for (auto _ : state) {
    RecordTrace(trace_sink_under_test, trace_label_under_test, ++seq);
  }
  state.SetItemsProcessed(state.iterations() * 3);
  if (state.thread_index() == 0) {
    delete trace_sink_under_test;
    trace_sink_under_test = nullptr;
  }
}
BENCHMARK(BM_TraceSinkRecord)->Threads(1)->Threads(4)->UseRealTime();

}  // namespace
}  // namespace muppet

BENCHMARK_MAIN();
