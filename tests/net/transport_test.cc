#include "net/transport.h"

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "tests/net/transport_test_util.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

using testing::SendOne;

// A frame handler that hands the whole frame to `on_message` as one
// message and accepts every message of it when `on_message` returns OK.
Transport::Handler OneMessageHandler(
    std::function<Status(MachineId from, BytesView payload)> on_message) {
  return [on_message = std::move(on_message)](
             MachineId from, BytesView frame, size_t count,
             size_t* accepted) {
    Status s = on_message(from, frame);
    if (s.ok()) *accepted = count;
    return s;
  };
}

// A frame handler that accepts every message of every frame.
Status AcceptAll(MachineId, BytesView, size_t count, size_t* accepted) {
  *accepted = count;
  return Status::OK();
}

TEST(TransportTest, DeliversToHandler) {
  InMemoryTransport transport;
  std::vector<std::string> received;
  ASSERT_OK(transport.RegisterMachine(
      1, OneMessageHandler([&received](MachineId from, BytesView payload) {
        received.push_back(std::to_string(from) + ":" + std::string(payload));
        return Status::OK();
      })));
  ASSERT_OK(SendOne(transport, 0, 1, "hello"));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "0:hello");
  EXPECT_EQ(transport.messages_sent(), 1);
  EXPECT_EQ(transport.frames_sent(), 1);
  EXPECT_EQ(transport.bytes_sent(), 5);
}

TEST(TransportTest, DuplicateRegistrationRejected) {
  InMemoryTransport transport;
  ASSERT_OK(transport.RegisterMachine(1, AcceptAll));
  EXPECT_EQ(transport.RegisterMachine(1, AcceptAll).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(transport.RegisterMachine(2, nullptr).ok());
}

TEST(TransportTest, SendToUnknownMachineUnavailable) {
  InMemoryTransport transport;
  EXPECT_TRUE(SendOne(transport, 0, 99, "x").IsUnavailable());
  EXPECT_EQ(transport.messages_dropped(), 1);
  // An unregistered machine is unknown again.
  ASSERT_OK(transport.RegisterMachine(2, AcceptAll));
  ASSERT_OK(SendOne(transport, 0, 2, "x"));
  transport.UnregisterMachine(2);
  EXPECT_TRUE(SendOne(transport, 0, 2, "x").IsUnavailable());
}

TEST(TransportTest, CrashedMachineUnreachableUntilRestored) {
  InMemoryTransport transport;
  int delivered = 0;
  ASSERT_OK(transport.RegisterMachine(
      1, OneMessageHandler([&](MachineId, BytesView) {
        ++delivered;
        return Status::OK();
      })));
  ASSERT_OK(SendOne(transport, 0, 1, "a"));
  transport.Crash(1);
  EXPECT_FALSE(transport.IsUp(1));
  EXPECT_TRUE(SendOne(transport, 0, 1, "b").IsUnavailable());
  transport.Restore(1);
  EXPECT_TRUE(transport.IsUp(1));
  ASSERT_OK(SendOne(transport, 0, 1, "c"));
  EXPECT_EQ(delivered, 2);
}

TEST(TransportTest, DeclineCountsAndPropagates) {
  InMemoryTransport transport;
  ASSERT_OK(transport.RegisterMachine(
      1, OneMessageHandler([](MachineId, BytesView) {
        return Status::ResourceExhausted("queue full");
      })));
  Status s = SendOne(transport, 0, 1, "x");
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(transport.messages_declined(), 1);
  EXPECT_EQ(transport.messages_sent(), 0) << "only accepted messages count";
}

TEST(TransportTest, HandlerErrorPropagatesVerbatim) {
  InMemoryTransport transport;
  ASSERT_OK(transport.RegisterMachine(
      1, OneMessageHandler([](MachineId, BytesView) {
        return Status::Corruption("bad payload");
      })));
  EXPECT_EQ(SendOne(transport, 0, 1, "x").code(), StatusCode::kCorruption);
}

TEST(TransportTest, LossModelDropsSome) {
  TransportOptions options;
  options.loss_probability = 0.5;
  options.seed = 7;
  InMemoryTransport transport(options);
  int delivered = 0;
  ASSERT_OK(transport.RegisterMachine(
      1, OneMessageHandler([&](MachineId, BytesView) {
        ++delivered;
        return Status::OK();
      })));
  int failures = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!SendOne(transport, 0, 1, "x").ok()) ++failures;
  }
  EXPECT_GT(failures, 300);
  EXPECT_LT(failures, 700);
  EXPECT_EQ(delivered, 1000 - failures);
}

TEST(TransportTest, LocalSendSkipsLossAndLatency) {
  TransportOptions options;
  options.loss_probability = 1.0;  // all cross-machine sends fail
  InMemoryTransport transport(options);
  int delivered = 0;
  ASSERT_OK(transport.RegisterMachine(
      1, OneMessageHandler([&](MachineId, BytesView) {
        ++delivered;
        return Status::OK();
      })));
  // from == to bypasses the loss model (Muppet 2.0 local passing, §4.5).
  ASSERT_OK(SendOne(transport, 1, 1, "local"));
  EXPECT_EQ(delivered, 1);
  EXPECT_TRUE(SendOne(transport, 0, 1, "remote").IsUnavailable());
}

TEST(TransportTest, HopLatencyChargedOnSimulatedClock) {
  SimulatedClock clock;
  TransportOptions options;
  options.hop_latency_micros = 150;
  options.clock = &clock;
  InMemoryTransport transport(options);
  ASSERT_OK(transport.RegisterMachine(1, AcceptAll));
  ASSERT_OK(SendOne(transport, 0, 1, "x"));
  EXPECT_EQ(clock.Now(), 150);
  ASSERT_OK(SendOne(transport, 1, 1, "local"));
  EXPECT_EQ(clock.Now(), 150) << "local sends pay no hop latency";
}

TEST(TransportTest, BatchFrameCountsFrameOnceAndMessagesPerEvent) {
  InMemoryTransport transport;
  ASSERT_OK(transport.RegisterMachine(1, AcceptAll));
  size_t accepted = 0;
  ASSERT_OK(transport.SendBatch(0, 1, "frame-bytes", 3, &accepted));
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(transport.frames_sent(), 1);
  EXPECT_EQ(transport.messages_sent(), 3);
  EXPECT_EQ(transport.bytes_sent(),
            static_cast<int64_t>(std::string("frame-bytes").size()));
}

TEST(TransportTest, BatchPartialDeclineReportsAcceptedPrefix) {
  InMemoryTransport transport;
  ASSERT_OK(transport.RegisterMachine(
      1, [](MachineId, BytesView, size_t count, size_t* accepted) {
        *accepted = count / 2;  // take half, decline the rest
        return Status::ResourceExhausted("queue full");
      }));
  size_t accepted = 0;
  Status s = transport.SendBatch(0, 1, "f", 4, &accepted);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(accepted, 2u);
  EXPECT_EQ(transport.messages_sent(), 2);
  EXPECT_EQ(transport.messages_declined(), 2);
}

TEST(TransportTest, BatchToCrashedMachineDropsWholeFrame) {
  InMemoryTransport transport;
  ASSERT_OK(transport.RegisterMachine(1, AcceptAll));
  transport.Crash(1);
  size_t accepted = 99;
  EXPECT_TRUE(transport.SendBatch(0, 1, "f", 5, &accepted).IsUnavailable());
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(transport.messages_dropped(), 5);
}

TEST(TransportTest, LocalDeliveryCountsAsSentAndLocal) {
  InMemoryTransport transport;
  EXPECT_EQ(transport.messages_local(), 0);
  transport.CountLocalDelivery();
  transport.CountLocalDelivery();
  EXPECT_EQ(transport.messages_local(), 2);
  EXPECT_EQ(transport.messages_sent(), 2);
}

TEST(TransportTest, ConcurrentSendsAreSafe) {
  InMemoryTransport transport;
  std::atomic<int> delivered{0};
  ASSERT_OK(transport.RegisterMachine(
      1, OneMessageHandler([&](MachineId, BytesView) {
        delivered.fetch_add(1);
        return Status::OK();
      })));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&transport] {
      for (int i = 0; i < 1000; ++i) {
        (void)SendOne(transport, 0, 1, "x");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(delivered.load(), 4000);
}

}  // namespace
}  // namespace muppet
