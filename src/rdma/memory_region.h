#ifndef REDY_RDMA_MEMORY_REGION_H_
#define REDY_RDMA_MEMORY_REGION_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "rdma/rdma.h"
#include "sim/inline_function.h"

namespace redy::rdma {

class Nic;

/// A memory region registered with a NIC. Owns real backing storage:
/// RDMA operations in the simulator move actual bytes between regions,
/// so correctness (not just timing) is exercised end to end.
class MemoryRegion {
 public:
  MemoryRegion(Nic* nic, uint64_t size, uint32_t rkey)
      : nic_(nic), rkey_(rkey), data_(size, 0) {}

  MemoryRegion(const MemoryRegion&) = delete;
  MemoryRegion& operator=(const MemoryRegion&) = delete;

  uint8_t* data() { return data_.data(); }
  const uint8_t* data() const { return data_.data(); }
  uint64_t size() const { return data_.size(); }

  RemoteKey remote_key() const { return RemoteKey{rkey_, epoch()}; }
  Nic* nic() const { return nic_; }

  /// Access epoch; bumping it (a revocation) makes every RemoteKey
  /// minted before the bump stale (the fence: DESIGN.md §7).
  ///
  /// Atomic because the socket backend's responder workers enforce the
  /// fence off the application loop (DESIGN.md §13): release/acquire
  /// ordering makes a revocation published by the loop visible to a
  /// worker before it deposits a byte. Under the simulator this
  /// compiles to the same plain load/store it always was.
  uint32_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void RevokeEpoch() { epoch_.fetch_add(1, std::memory_order_acq_rel); }

  /// A deregistered region rejects all remote access (used when a region
  /// is reclaimed or its VM is torn down).
  bool valid() const { return valid_.load(std::memory_order_acquire); }
  void Invalidate() { valid_.store(false, std::memory_order_release); }

  bool InBounds(uint64_t offset, uint64_t len) const {
    return offset + len <= data_.size() && offset + len >= offset;
  }

  /// Observer invoked (at the landing event's simulated time) after a
  /// remote RDMA write deposits bytes into this region — the
  /// simulator's stand-in for the cache-line snoop a busy-polling
  /// thread would observe. Work sources use it to Wake() parked
  /// pollers (DESIGN.md §9); it must not change simulated state.
  void SetRemoteWriteNotifier(sim::InlineFunction fn) {
    on_remote_write_ = std::move(fn);
  }
  void NotifyRemoteWrite() {
    if (on_remote_write_) on_remote_write_();
  }
  bool has_remote_write_notifier() const {
    return static_cast<bool>(on_remote_write_);
  }

 private:
  Nic* nic_;
  uint32_t rkey_;
  std::atomic<uint32_t> epoch_{0};
  std::atomic<bool> valid_{true};
  std::vector<uint8_t> data_;
  sim::InlineFunction on_remote_write_;
};

}  // namespace redy::rdma

#endif  // REDY_RDMA_MEMORY_REGION_H_
