#ifndef REDY_RINGBUF_SPSC_RING_H_
#define REDY_RINGBUF_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/cache_line.h"
#include "common/logging.h"

namespace redy::ringbuf {

/// Bounded single-producer/single-consumer lock-free ring buffer.
///
/// This is the *batch ring* of Section 4.3: each application thread
/// feeds exactly one Redy client thread, so SPSC suffices and the fast
/// path is a single release store.
///
/// Layout: the producer-owned index (head_, plus the producer's cached
/// snapshot of tail_) and the consumer-owned index (tail_, plus the
/// consumer's cached snapshot of head_) live on separate 64-byte cache
/// lines, so the two endpoints never false-share. The cached snapshots
/// cut cross-core traffic further: the hot path compares against the
/// local copy and re-reads the opposite atomic only when the ring looks
/// full (producer) or empty (consumer). head_ and tail_ count pushes
/// and pops; the ring is full when they are `capacity` apart, so it
/// admits exactly the capacity asked for.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity) : capacity_(capacity) {
    size_t slots = 1;
    while (slots < capacity) slots <<= 1;
    buf_.resize(slots);
    mask_ = slots - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. Returns false when full.
  bool TryPush(T value) {
    const size_t head = head_.load(std::memory_order_relaxed);
    if (head - cached_tail_ == capacity_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head - cached_tail_ == capacity_) return false;
    }
    buf_[head & mask_] = std::move(value);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Returns nullopt when empty.
  std::optional<T> TryPop() {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return std::nullopt;
    }
    T value = std::move(buf_[tail & mask_]);
    tail_.store(tail + 1, std::memory_order_release);
    return value;
  }

  /// Consumer-side peek without consuming.
  const T* Front() const {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail == cached_head_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail == cached_head_) return nullptr;
    }
    return &buf_[tail & mask_];
  }

  bool Empty() const {
    return tail_.load(std::memory_order_acquire) ==
           head_.load(std::memory_order_acquire);
  }

  /// Approximate size (exact when called from either endpoint's thread).
  size_t Size() const {
    // tail first: head only grows, so it cannot fall behind tail.
    const size_t tail = tail_.load(std::memory_order_acquire);
    const size_t head = head_.load(std::memory_order_acquire);
    return head - tail;
  }

  size_t Capacity() const { return capacity_; }

  /// Layout probes for tests: the two index lines must be 64-byte
  /// aligned and distinct (see ringbuf_test.cc).
  const void* producer_line() const { return &head_; }
  const void* consumer_line() const { return &tail_; }

 private:
  std::vector<T> buf_;
  size_t capacity_;
  size_t mask_;
  /// Producer-owned line: write index + cached copy of the consumer's.
  alignas(kCacheLineBytes) std::atomic<size_t> head_{0};
  size_t cached_tail_ = 0;
  /// Consumer-owned line: read index + cached copy of the producer's.
  /// cached_head_ is mutable so the logically-const Front() can refresh
  /// it (consumer-side only, like TryPop).
  alignas(kCacheLineBytes) std::atomic<size_t> tail_{0};
  mutable size_t cached_head_ = 0;
};

}  // namespace redy::ringbuf

#endif  // REDY_RINGBUF_SPSC_RING_H_
