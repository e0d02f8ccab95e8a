#ifndef REDY_FASTER_REDY_DEVICE_H_
#define REDY_FASTER_REDY_DEVICE_H_

#include <cstdint>
#include <memory>

#include "common/slab_pool.h"
#include "faster/idevice.h"
#include "redy/cache_client.h"

namespace redy::faster {

/// A Redy cache wrapped as a FASTER IDevice (Section 8.2, Fig. 17):
/// the first tier of the tiered device. The cache's fixed capacity
/// holds the most recent suffix of the log; appends beyond capacity
/// wrap around (offset modulo capacity) and evict the oldest suffix,
/// which Covers() then reports as absent so reads fall through to the
/// next tier. Submission backpressure (a full client batch ring) is
/// absorbed with a short retry instead of being surfaced to FASTER.
///
/// Per-I/O join state (splitting a wrapping access into two cache ops
/// and merging their completions) lives in a slab pool, so the piece
/// callbacks capture only {this, record*} and the steady-state I/O
/// path never allocates (DESIGN.md §10).
class RedyDevice : public IDevice {
 public:
  RedyDevice(sim::Simulation* sim, CacheClient* client,
             CacheClient::CacheId cache, uint64_t capacity)
      : sim_(sim), client_(client), cache_(cache), capacity_(capacity) {}

  void ReadAsync(uint64_t offset, void* dst, uint64_t len,
                 Callback cb) override {
    if (!Covers(offset, len)) {
      cb(Status::NotFound("evicted from Redy tier"));
      return;
    }
    Submit(offset, dst, nullptr, len, /*end=*/0, std::move(cb));
  }

  void WriteAsync(uint64_t offset, const void* src, uint64_t len,
                  Callback cb) override {
    Submit(offset, nullptr, src, len, offset + len, std::move(cb));
  }

  void WriteSync(uint64_t offset, const void* src, uint64_t len) override {
    const uint64_t a = offset % capacity_;
    const uint64_t first = std::min(len, capacity_ - a);
    client_->Poke(cache_, a, src, first);
    if (first < len) {
      client_->Poke(cache_, 0, static_cast<const uint8_t*>(src) + first,
                    len - first);
    }
    if (offset + len > high_water_) high_water_ = offset + len;
  }

  bool Covers(uint64_t offset, uint64_t len) const override {
    // Valid window: the last `capacity_` bytes that were written.
    const uint64_t low =
        high_water_ > capacity_ ? high_water_ - capacity_ : 0;
    return offset >= low && offset + len <= high_water_;
  }

  std::string name() const override { return "redy"; }
  uint64_t capacity() const { return capacity_; }
  CacheClient::CacheId cache_id() const { return cache_; }

 private:
  /// Pooled per-I/O state: the device callback plus the join of the
  /// (at most two) cache ops the access maps onto. `end` carries the
  /// high-water advance for writes (0 for reads).
  struct Pending {
    Callback cb;
    Status error;
    uint64_t end = 0;
    int remaining = 0;
  };

  /// Splits an access that wraps the modulo boundary into <= 2 cache
  /// ops and joins their completions on a pooled record.
  void Submit(uint64_t offset, void* dst, const void* src, uint64_t len,
              uint64_t end, Callback cb) {
    const uint64_t a = offset % capacity_;
    const uint64_t first = std::min(len, capacity_ - a);
    Pending* p = pending_pool_.Acquire();
    p->cb = std::move(cb);
    p->error = Status::OK();
    p->end = end;
    p->remaining = first == len ? 1 : 2;
    SubmitOne(a, dst, src, first, p);
    if (first < len) {
      SubmitOne(0,
                dst == nullptr ? nullptr
                               : static_cast<uint8_t*>(dst) + first,
                src == nullptr ? nullptr
                               : static_cast<const uint8_t*>(src) + first,
                len - first, p);
    }
  }

  void SubmitOne(uint64_t cache_addr, void* dst, const void* src,
                 uint64_t len, Pending* p) {
    const uint32_t thread = next_thread_++;
    auto piece_cb = [this, p](Status s) { OnPiece(p, s); };
    static_assert(CacheClient::Callback::fits_inline<decltype(piece_cb)>(),
                  "piece callback must not heap-allocate");
    Status st =
        src == nullptr
            ? client_->Read(cache_, cache_addr, dst, len, piece_cb, thread)
            : client_->Write(cache_, cache_addr, src, len, piece_cb, thread);
    if (st.ok()) return;
    if (st.IsResourceExhausted()) {
      // Batch ring momentarily full: retry shortly.
      auto retry = [this, cache_addr, dst, src, len, p] {
        SubmitOne(cache_addr, dst, src, len, p);
      };
      static_assert(sim::InlineFunction::fits_inline<decltype(retry)>(),
                    "submit retry must not heap-allocate");
      sim_->After(500, retry);
      return;
    }
    OnPiece(p, st);
  }

  void OnPiece(Pending* p, Status s) {
    if (!s.ok() && p->error.ok()) p->error = s;
    if (--p->remaining > 0) return;
    if (p->error.ok() && p->end > high_water_) high_water_ = p->end;
    // Release before firing: the callback may re-enter this device.
    Callback cb = std::move(p->cb);
    const Status err = p->error;
    p->cb = Callback();
    pending_pool_.Release(p);
    if (cb) cb(err);
  }

  sim::Simulation* sim_;
  CacheClient* client_;
  CacheClient::CacheId cache_;
  uint64_t capacity_;
  uint64_t high_water_ = 0;
  uint32_t next_thread_ = 0;
  common::SlabPool<Pending> pending_pool_;
};

}  // namespace redy::faster

#endif  // REDY_FASTER_REDY_DEVICE_H_
