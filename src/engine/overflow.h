// Queue-overflow policies (§4.3). When worker B's queue declines an event,
// worker A's overflow mechanism takes one of three actions the paper
// enumerates: drop (and log) the event; redirect it to a designated
// "overflow" stream whose subscribers implement degraded service; or slow
// the pace of event passing (source throttling, §5).
#ifndef MUPPET_ENGINE_OVERFLOW_H_
#define MUPPET_ENGINE_OVERFLOW_H_

#include <cstdint>
#include <string>

namespace muppet {

enum class OverflowPolicy : uint8_t {
  kDrop,            // drop + log (the default; latency over completeness)
  kOverflowStream,  // redirect to `overflow_stream` (degraded service)
  kThrottle,        // block the sender and retry (source throttling)
};

struct OverflowOptions {
  OverflowPolicy policy = OverflowPolicy::kDrop;
  // Target stream for kOverflowStream. Its subscribers should be cheap
  // ("substituting expensive operations ... with approximate operations").
  std::string overflow_stream;
};

}  // namespace muppet

#endif  // MUPPET_ENGINE_OVERFLOW_H_
