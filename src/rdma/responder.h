#ifndef REDY_RDMA_RESPONDER_H_
#define REDY_RDMA_RESPONDER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "rdma/memory_region.h"
#include "rdma/rdma.h"

/// The responder's rules (DESIGN.md §7: the WRITE and chain-hop fence,
/// the unfenced READ, bounds, and the publish-protocol deposit), written
/// once for both verbs backends. Each function is time-free and runs on
/// a region the caller resolved from its rkey; a region that is gone is
/// the caller's kProtectionError.
namespace redy::rdma::responder {

/// The fence alone; the two-sided server applies it to requests whose
/// header carries the key's epoch.
StatusCode Fence(const MemoryRegion& mr, uint32_t epoch);

/// Fence, then bounds, then deposit `len` bytes from `src` at `offset`.
StatusCode Write(MemoryRegion& mr, uint32_t epoch, uint64_t offset,
                 const uint8_t* src, uint64_t len);

/// Bounds, then snapshot `len` bytes at `offset` into `dst`.
StatusCode Read(const MemoryRegion& mr, uint64_t offset, uint64_t len,
                uint8_t* dst);

/// One chain hop: fence, then the chased address of an `addr_from_prev`
/// hop (rdma::ChainHop), then bounds. The hop appends its payload to
/// `out` and keeps its first (up to) 8 bytes, little-endian, in
/// `*prev_word`.
StatusCode ChainHop(const MemoryRegion& mr, const rdma::ChainHop& hop,
                    uint64_t* prev_word, std::vector<uint8_t>* out);

/// Post-side check of a chain on local region `local`: 1..kMaxChainHops
/// hops, every local range in bounds, and every `addr_from_prev` hop
/// preceded by a hop of at least 8 bytes.
Status ValidateChain(const MemoryRegion& local, const rdma::ChainHop* hops,
                     uint32_t num_hops);

/// Completion-side: scatters a successful chain's concatenated payloads
/// to each hop's `local_offset` in `local`, in hop order.
void ScatterChainReads(const rdma::ChainHop* hops, uint32_t num_hops,
                       const uint8_t* payload, MemoryRegion& local);

}  // namespace redy::rdma::responder

#endif  // REDY_RDMA_RESPONDER_H_
