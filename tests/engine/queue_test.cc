#include "engine/queue.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace muppet {
namespace {

RoutedEvent Item(int32_t function_id, int i) {
  RoutedEvent re;
  re.function_id = function_id;
  re.event.key = "k" + std::to_string(i);
  re.event.seq = static_cast<uint64_t>(i);
  return re;
}

TEST(EventQueueTest, FifoOrder) {
  EventQueue queue(10);
  for (int i = 0; i < 5; ++i) ASSERT_OK(queue.TryPush(Item(0, i)));
  RoutedEvent out;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Pop(&out));
    EXPECT_EQ(out.event.seq, static_cast<uint64_t>(i));
  }
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, DeclinesWhenFull) {
  EventQueue queue(3);
  for (int i = 0; i < 3; ++i) ASSERT_OK(queue.TryPush(Item(0, i)));
  Status s = queue.TryPush(Item(0, 3));
  EXPECT_TRUE(s.IsResourceExhausted()) << "full queue must decline (§4.3)";
  // Popping frees a slot.
  RoutedEvent out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_OK(queue.TryPush(Item(0, 4)));
}

TEST(EventQueueTest, StopRefusesPushesDrainsPops) {
  EventQueue queue(10);
  ASSERT_OK(queue.TryPush(Item(0, 1)));
  queue.Stop();
  EXPECT_EQ(queue.TryPush(Item(0, 2)).code(), StatusCode::kAborted);
  RoutedEvent out;
  EXPECT_TRUE(queue.Pop(&out));   // remaining item drains
  EXPECT_FALSE(queue.Pop(&out));  // then Pop unblocks with false
}

TEST(EventQueueTest, BlockingPopWakesOnPush) {
  EventQueue queue(10);
  std::atomic<bool> got{false};
  std::thread popper([&] {
    RoutedEvent out;
    if (queue.Pop(&out)) got.store(true);
  });
  SystemClock::Default()->SleepFor(10000);
  ASSERT_OK(queue.TryPush(Item(0, 1)));
  popper.join();
  EXPECT_TRUE(got.load());
}

TEST(EventQueueTest, ClearDiscardsAndCounts) {
  EventQueue queue(10);
  for (int i = 0; i < 7; ++i) ASSERT_OK(queue.TryPush(Item(0, i)));
  EXPECT_EQ(queue.Clear(), 7u);
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, ZeroCapacityClampedToOne) {
  EventQueue queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  ASSERT_OK(queue.TryPush(Item(0, 1)));
  EXPECT_TRUE(queue.TryPush(Item(0, 2)).IsResourceExhausted());
}

TEST(EventQueueTest, MultiProducerMultiConsumer) {
  EventQueue queue(128);
  constexpr int kProducers = 3, kConsumers = 3, kPerProducer = 2000;
  std::atomic<int> consumed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      RoutedEvent out;
      while (queue.Pop(&out)) consumed.fetch_add(1);
    });
  }
  std::atomic<int> produced{0};
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerProducer; ++i) {
        while (!queue.TryPush(Item(0, i)).ok()) {
          std::this_thread::yield();
        }
        produced.fetch_add(1);
      }
    });
  }
  // Join producers (the last kProducers threads).
  for (size_t i = kConsumers; i < threads.size(); ++i) threads[i].join();
  while (consumed.load() < produced.load()) std::this_thread::yield();
  queue.Stop();
  for (int c = 0; c < kConsumers; ++c) threads[static_cast<size_t>(c)].join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
}

TEST(EventQueueTest, TryPushMoveLeavesItemIntactOnDecline) {
  EventQueue queue(1);
  ASSERT_OK(queue.TryPush(Item(0, 0)));
  RoutedEvent re = Item(1, 7);
  Status s = queue.TryPushMove(&re);
  ASSERT_TRUE(s.IsResourceExhausted());
  // The declined item must still be offerable to another queue.
  EXPECT_EQ(re.function_id, 1);
  EXPECT_EQ(re.event.key, "k7");
  EventQueue other(1);
  ASSERT_OK(other.TryPushMove(&re));
  RoutedEvent out;
  ASSERT_TRUE(other.Pop(&out));
  EXPECT_EQ(out.event.key, "k7");
}

TEST(EventQueueTest, PopBatchDrainsUpToMax) {
  EventQueue queue(16);
  for (int i = 0; i < 10; ++i) ASSERT_OK(queue.TryPush(Item(0, i)));
  std::vector<RoutedEvent> out;
  ASSERT_TRUE(queue.PopBatch(&out, 4));
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)].event.seq, static_cast<uint64_t>(i));
  }
  out.clear();
  ASSERT_TRUE(queue.PopBatch(&out, 100));
  EXPECT_EQ(out.size(), 6u) << "takes what is there, does not wait for max";
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, PopBatchUnblocksOnStop) {
  EventQueue queue(16);
  std::atomic<bool> returned_false{false};
  std::thread popper([&] {
    std::vector<RoutedEvent> out;
    if (!queue.PopBatch(&out, 8)) returned_false.store(true);
  });
  SystemClock::Default()->SleepFor(10000);
  queue.Stop();
  popper.join();
  EXPECT_TRUE(returned_false.load());
}

TEST(EventQueueTest, SizeIsLockFreeConsistent) {
  EventQueue queue(8);
  EXPECT_EQ(queue.size(), 0u);
  for (int i = 0; i < 3; ++i) ASSERT_OK(queue.TryPush(Item(0, i)));
  EXPECT_EQ(queue.size(), 3u);
  RoutedEvent out;
  ASSERT_TRUE(queue.Pop(&out));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.Clear(), 2u);
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
}  // namespace muppet
