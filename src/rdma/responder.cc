#include "rdma/responder.h"

#include <atomic>
#include <cstring>

namespace redy::rdma::responder {

namespace {

/// The publish protocol: body first, then the leading word (the batch
/// ring's sequence word) with a release store. Under the simulator the
/// split lands the same bytes at the same event.
void Deposit(uint8_t* dst, const uint8_t* src, uint64_t len) {
  if (len >= 8 && reinterpret_cast<uintptr_t>(dst) % 8 == 0) {
    std::memcpy(dst + 8, src + 8, len - 8);
    uint64_t first;
    std::memcpy(&first, src, sizeof(first));
    std::atomic_ref<uint64_t>(*reinterpret_cast<uint64_t*>(dst))
        .store(first, std::memory_order_release);
  } else if (len != 0) {
    // Same shape at byte granularity (atomic_thread_fence is
    // unsupported under TSan).
    std::memcpy(dst + 1, src + 1, len - 1);
    std::atomic_ref<uint8_t>(*dst).store(src[0], std::memory_order_release);
  }
}

}  // namespace

StatusCode Fence(const MemoryRegion& mr, uint32_t epoch) {
  return epoch == mr.epoch() ? StatusCode::kOk : StatusCode::kProtectionError;
}

StatusCode Write(MemoryRegion& mr, uint32_t epoch, uint64_t offset,
                 const uint8_t* src, uint64_t len) {
  if (Fence(mr, epoch) != StatusCode::kOk) return StatusCode::kProtectionError;
  if (!mr.InBounds(offset, len)) return StatusCode::kAborted;
  Deposit(mr.data() + offset, src, len);
  return StatusCode::kOk;
}

StatusCode Read(const MemoryRegion& mr, uint64_t offset, uint64_t len,
                uint8_t* dst) {
  if (!mr.InBounds(offset, len)) return StatusCode::kAborted;
  if (len != 0) std::memcpy(dst, mr.data() + offset, len);
  return StatusCode::kOk;
}

StatusCode ChainHop(const MemoryRegion& mr, const rdma::ChainHop& hop,
                    uint64_t* prev_word, std::vector<uint8_t>* out) {
  if (Fence(mr, hop.key.epoch) != StatusCode::kOk) {
    return StatusCode::kProtectionError;
  }
  uint64_t offset = hop.remote_offset;
  if (hop.addr_from_prev) {
    offset += (*prev_word & hop.addr_mask) >> hop.addr_shift;
  }
  if (!mr.InBounds(offset, hop.len)) return StatusCode::kAborted;
  const uint8_t* at = mr.data() + offset;
  out->insert(out->end(), at, at + hop.len);
  uint64_t word = 0;
  std::memcpy(&word, at, hop.len < 8 ? hop.len : 8);
  *prev_word = word;
  return StatusCode::kOk;
}

Status ValidateChain(const MemoryRegion& local, const rdma::ChainHop* hops,
                     uint32_t num_hops) {
  if (num_hops == 0 || num_hops > kMaxChainHops) {
    return Status::InvalidArgument("bad chain length");
  }
  for (uint32_t i = 0; i < num_hops; i++) {
    const rdma::ChainHop& h = hops[i];
    if (!local.InBounds(h.local_offset, h.len)) {
      return Status::OutOfRange("chain hop local range out of bounds");
    }
    if (h.addr_from_prev && (i == 0 || hops[i - 1].len < 8)) {
      return Status::InvalidArgument(
          "dependent hop needs a preceding >=8 B hop");
    }
  }
  return Status::OK();
}

void ScatterChainReads(const rdma::ChainHop* hops, uint32_t num_hops,
                       const uint8_t* payload, MemoryRegion& local) {
  for (uint32_t i = 0; i < num_hops; i++) {
    std::memcpy(local.data() + hops[i].local_offset, payload, hops[i].len);
    payload += hops[i].len;
  }
}

}  // namespace redy::rdma::responder
