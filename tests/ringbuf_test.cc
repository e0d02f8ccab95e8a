#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/cache_line.h"
#include "ringbuf/spsc_ring.h"

namespace redy {
namespace {

/// Distance in bytes between two member addresses.
uint64_t ByteDistance(const void* a, const void* b) {
  const auto x = reinterpret_cast<uintptr_t>(a);
  const auto y = reinterpret_cast<uintptr_t>(b);
  return x > y ? x - y : y - x;
}

TEST(SpscRingTest, PushPopSingleThread) {
  ringbuf::SpscRing<int> ring(8);
  for (int i = 0; i < 8; i++) EXPECT_TRUE(ring.TryPush(i));
  for (int i = 0; i < 8; i++) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, FullRejectsPush) {
  ringbuf::SpscRing<int> ring(4);
  size_t pushed = 0;
  while (ring.TryPush(1)) pushed++;
  EXPECT_EQ(pushed, ring.Capacity());
  EXPECT_FALSE(ring.TryPush(1));
  ring.TryPop();
  EXPECT_TRUE(ring.TryPush(1));
}

TEST(SpscRingTest, AdmitsExactlyTheRequestedCapacity) {
  // Against literals, not Capacity(): a ring that silently rounded its
  // size up would agree with its own Capacity().
  for (const size_t capacity : {size_t{4}, size_t{5}, size_t{16384}}) {
    ringbuf::SpscRing<int> ring(capacity);
    size_t pushed = 0;
    while (ring.TryPush(1)) pushed++;
    EXPECT_EQ(pushed, capacity);
    EXPECT_EQ(ring.Size(), capacity);
    ring.TryPop();
    EXPECT_TRUE(ring.TryPush(1));
    EXPECT_FALSE(ring.TryPush(1));
  }
}

TEST(SpscRingTest, FrontPeeksWithoutConsuming) {
  ringbuf::SpscRing<int> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);
  ring.TryPush(42);
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 42);
  EXPECT_EQ(ring.Size(), 1u);
  EXPECT_EQ(*ring.TryPop(), 42);
}

TEST(SpscRingTest, ConcurrentProducerConsumer) {
  // Real-thread stress: every value must arrive exactly once, in order.
  ringbuf::SpscRing<uint64_t> ring(1024);
  constexpr uint64_t kN = 1'000'000;
  std::thread producer([&] {
    for (uint64_t i = 0; i < kN; i++) {
      while (!ring.TryPush(i)) {
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kN) {
    auto v = ring.TryPop();
    if (v.has_value()) {
      ASSERT_EQ(*v, expected);
      expected++;
    }
  }
  producer.join();
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, IndexLinesAreCacheLineAlignedAndDistinct) {
  using Ring = ringbuf::SpscRing<int>;
  Ring ring(8);
  const void* prod = ring.producer_line();
  const void* cons = ring.consumer_line();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(prod) % kCacheLineBytes, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(cons) % kCacheLineBytes, 0u);
  // The producer's index (+ its cached tail snapshot) and the
  // consumer's index (+ its cached head snapshot) must never share a
  // cache line, or the endpoints false-share on every op.
  EXPECT_GE(ByteDistance(prod, cons), kCacheLineBytes);
}

TEST(SpscRingTest, CachedIndicesSurviveWraparoundTransitions) {
  // Drive many full->empty->full transitions on a tiny ring: each one
  // forces both endpoints' cached snapshots stale and refreshed. Any
  // missed refresh shows up as a wrong reject/accept or lost value.
  ringbuf::SpscRing<int> ring(4);
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 1000; round++) {
    while (ring.TryPush(next_push)) next_push++;
    EXPECT_FALSE(ring.TryPush(next_push));  // full is really full
    EXPECT_EQ(ring.Size(), ring.Capacity());
    while (true) {
      const int* front = ring.Front();
      auto v = ring.TryPop();
      if (!v.has_value()) {
        EXPECT_EQ(front, nullptr);
        break;
      }
      ASSERT_NE(front, nullptr);
      EXPECT_EQ(*front, *v);
      EXPECT_EQ(*v, next_pop);
      next_pop++;
    }
    EXPECT_TRUE(ring.Empty());
    // Partial refill keeps the indices off the slab boundaries.
    EXPECT_TRUE(ring.TryPush(next_push));
    next_push++;
    EXPECT_EQ(*ring.TryPop(), next_pop);
    next_pop++;
  }
  EXPECT_EQ(next_push, next_pop);
}

}  // namespace
}  // namespace redy
