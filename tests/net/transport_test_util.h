// Single-message helper for transport tests. The transport carries only
// frames (net/transport.h); a single message is a frame of count 1.
#ifndef MUPPET_TESTS_NET_TRANSPORT_TEST_UTIL_H_
#define MUPPET_TESTS_NET_TRANSPORT_TEST_UTIL_H_

#include "net/transport.h"

namespace muppet {
namespace testing {

// Send `payload` as a frame of one message.
inline Status SendOne(Transport& transport, MachineId from, MachineId to,
                      BytesView payload, uint64_t fault_signature = 0) {
  size_t accepted = 0;
  return transport.SendBatch(from, to, payload, 1, &accepted,
                             fault_signature);
}

}  // namespace testing
}  // namespace muppet

#endif  // MUPPET_TESTS_NET_TRANSPORT_TEST_UTIL_H_
