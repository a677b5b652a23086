// The routed-event wire format: an id-addressed batch frame
// (EncodeRoutedEventFrame). Events in a frame carry their interned
// function id and precomputed work hash so the receiver re-hashes
// nothing, and a frame carries many events so one network hop amortizes
// per-message overhead. Ids and hashes are engine-local but
// deterministic: every machine builds the same operator table from the
// same AppConfig at Start(). Muppet 2.0 coalesces a destination's events
// into one frame; Muppet 1.0 sends each event alone, as a frame of one
// behind its destination worker's slot, so it still pays the per-event
// encode and hop that §4.5 names.
#ifndef MUPPET_ENGINE_WIRE_H_
#define MUPPET_ENGINE_WIRE_H_

#include <span>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/status.h"
#include "core/event.h"
#include "engine/queue.h"

namespace muppet {

// Content signature of a routed event for the fault injector (net/fault.h).
// Deliberately excludes the fields the engine assigns from global mutable
// state (`seq`, `origin_ts`): those differ between two runs of the same
// workload, and hashing them would make fault decisions depend on thread
// interleaving. Never returns 0 (0 tells the injector to hash the payload).
inline uint64_t EventFaultSignature(const RoutedEvent& re) {
  uint64_t h = HashCombine(re.work, Fnv1a64(re.event.stream));
  h = HashCombine(h, Fnv1a64(re.event.key));
  h = HashCombine(h, Fnv1a64(re.event.value));
  h = HashCombine(h, static_cast<uint64_t>(re.event.ts));
  return h == 0 ? 1 : h;
}

// Signature of a whole batch frame: order-sensitive combination of the
// events' signatures (the frame is one fault-model message).
inline uint64_t FrameFaultSignature(std::span<const RoutedEvent> events) {
  uint64_t h = 0x66726d65ULL;  // "frme"
  for (const RoutedEvent& re : events) {
    h = HashCombine(h, EventFaultSignature(re));
  }
  return h == 0 ? 1 : h;
}

// Trace context (common/trace.h) rides after the event payload so a
// sampled trace follows its event across machines. It is excluded from
// the fault signatures above on purpose: whether an event is traced must
// never change which faults it draws.
//
// Batch frame: varint event count, then per event the interned function
// id, the cached work hash, the split shard (biased by one so -1/unsplit
// encodes as a single zero byte), the dedup identity, and the event
// record.
inline void EncodeRoutedEventFrame(std::span<const RoutedEvent> events,
                                   Bytes* out) {
  PutVarint32(out, static_cast<uint32_t>(events.size()));
  Bytes event_bytes;
  for (const RoutedEvent& re : events) {
    PutVarint32(out, static_cast<uint32_t>(re.function_id));
    PutVarint64(out, re.work);
    PutVarint32(out, static_cast<uint32_t>(re.shard + 1));
    PutVarint64(out, re.dedup);
    event_bytes.clear();
    EncodeEvent(re.event, &event_bytes);
    PutLengthPrefixed(out, event_bytes);
    PutVarint64(out, re.event.trace.trace_id);
    PutVarint64(out, re.event.trace.parent_span);
  }
}

// Streaming decoder for batch frames: the receiver dispatches each event
// as it is decoded (and may stop early on a declined queue), so the frame
// is never materialized as a whole vector.
class RoutedEventFrameReader {
 public:
  explicit RoutedEventFrameReader(BytesView frame)
      : p_(frame.data()), limit_(frame.data() + frame.size()) {
    if (!GetVarint32(&p_, limit_, &remaining_)) {
      corrupt_ = true;
      remaining_ = 0;
    }
  }

  // Events not yet decoded (0 when done or corrupt).
  uint32_t remaining() const { return remaining_; }
  bool corrupt() const { return corrupt_; }

  // Decode the next event into *re. False when exhausted or corrupt.
  bool Next(RoutedEvent* re) {
    if (remaining_ == 0) return false;
    uint32_t fid = 0;
    uint32_t shard_plus_one = 0;
    BytesView event_bytes;
    TraceContext trace;
    if (!GetVarint32(&p_, limit_, &fid) ||
        !GetVarint64(&p_, limit_, &re->work) ||
        !GetVarint32(&p_, limit_, &shard_plus_one) ||
        !GetVarint64(&p_, limit_, &re->dedup) ||
        !GetLengthPrefixed(&p_, limit_, &event_bytes) ||
        !GetVarint64(&p_, limit_, &trace.trace_id) ||
        !GetVarint64(&p_, limit_, &trace.parent_span) ||
        !DecodeEvent(event_bytes, &re->event).ok()) {
      corrupt_ = true;
      remaining_ = 0;
      return false;
    }
    re->event.trace = trace;
    re->function_id = static_cast<int32_t>(fid);
    re->shard = static_cast<int32_t>(shard_plus_one) - 1;
    --remaining_;
    return true;
  }

 private:
  const char* p_;
  const char* limit_;
  uint32_t remaining_ = 0;
  bool corrupt_ = false;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_WIRE_H_
