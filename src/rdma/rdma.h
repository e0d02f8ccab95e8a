#ifndef REDY_RDMA_RDMA_H_
#define REDY_RDMA_RDMA_H_

#include <cstdint>

#include "common/status.h"
#include "sim/simulation.h"

namespace redy::rdma {

/// RDMA verb opcodes, exactly the ones Redy posts: one-sided READ and
/// WRITE over reliable-connected queue pairs (its two-sided RPC is
/// WRITEs into polled rings), plus NIC-offloaded read-only chains
/// (kChain) in the spirit of triggered/cross-channel work requests
/// ("RDMA is Turing complete").
enum class Opcode : uint8_t {
  kRead,
  kWrite,
  kChain,
};

/// The access token a cache server hands to clients for each registered
/// region (the paper's "RDMA access-tokens, one per region").
///
/// `epoch` is the access epoch the key was minted under. Revoking a
/// region (at migration cutover, before its VM can be reassigned) bumps
/// the region's epoch, so every outstanding key becomes stale and is
/// fenced (rdma/responder.h).
struct RemoteKey {
  uint32_t rkey = 0;
  uint32_t epoch = 0;

  friend bool operator==(const RemoteKey&, const RemoteKey&) = default;
};

/// Maximum number of hops in one chained work request. Small and fixed
/// so the whole descriptor block fits in a pooled record and the issue
/// path stays allocation-free.
inline constexpr uint32_t kMaxChainHops = 8;

/// One read hop of a NIC-executed dependent op chain (Opcode::kChain).
///
/// Hops execute strictly in order on the *responder* NIC: hop N+1 is
/// gated on hop N's NIC-internal completion (WAIT-on-CQ semantics).
/// When `addr_from_prev` is set, the hop's remote address is computed
/// from the previous hop's landed payload: the first 8 bytes are taken
/// as a little-endian u64, then
///   remote = remote_offset + ((word & addr_mask) >> addr_shift)
/// — i.e. a remote pointer chase resolved in one client doorbell.
///
/// Every hop is fenced, unlike a plain READ (DESIGN.md §7).
struct ChainHop {
  RemoteKey key;
  uint64_t remote_offset = 0;
  /// Where the landed payload goes in the local MR.
  uint64_t local_offset = 0;
  uint64_t len = 0;
  uint64_t addr_mask = ~0ull;
  uint8_t addr_shift = 0;
  bool addr_from_prev = false;
};

/// A completion-queue entry.
struct WorkCompletion {
  uint64_t wr_id = 0;
  Opcode opcode = Opcode::kWrite;
  StatusCode status = StatusCode::kOk;
  uint32_t byte_len = 0;
  sim::SimTime completed_at = 0;
};

}  // namespace redy::rdma

#endif  // REDY_RDMA_RDMA_H_
