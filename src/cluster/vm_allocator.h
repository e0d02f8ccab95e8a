#ifndef REDY_CLUSTER_VM_ALLOCATOR_H_
#define REDY_CLUSTER_VM_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/units.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace redy::cluster {

using VmId = uint64_t;
inline constexpr VmId kInvalidVm = 0;

/// The threshold below which leftover memory does not count as stranded
/// (the paper's stranding-event definition uses >= 1 GB).
inline constexpr uint64_t kStrandedMinBytes = 1 * kGiB;

/// A placed VM (or memory-only stranded-memory reservation).
struct Vm {
  VmId id = kInvalidVm;
  net::ServerId server = net::kInvalidServer;
  uint32_t cores = 0;
  uint64_t memory_bytes = 0;
  bool spot = false;
  bool memory_only = false;  // stranded-memory reservation
  std::string type_name;
  sim::SimTime created_at = 0;
};

/// Core/memory accounting for one physical server.
struct PhysicalServer {
  uint32_t cores_total = 0;
  uint32_t cores_used = 0;
  uint64_t memory_total = 0;
  uint64_t memory_used = 0;
  bool failed = false;

  uint32_t cores_free() const { return cores_total - cores_used; }
  uint64_t memory_free() const { return memory_total - memory_used; }

  /// Stranded: all cores allocated but >= 1 GB of memory left over.
  bool stranded() const {
    return !failed && cores_free() == 0 &&
           memory_free() >= kStrandedMinBytes;
  }
};

/// The cluster's VM allocator (the box Redy's cache manager talks to in
/// Fig. 4). Tracks per-server core/memory usage, places VMs, reports
/// stranded memory, and delivers spot-reclamation notices with the
/// 30-120 s early warning today's providers give.
class VmAllocator {
 public:
  /// `reclaim_notice` is the early-warning window for spot VMs.
  VmAllocator(sim::Simulation* sim, const net::Topology* topology,
              uint32_t cores_per_server, uint64_t memory_per_server,
              sim::SimTime reclaim_notice = 30 * kSecond);

  /// Notification that `vm` will be reclaimed at `deadline` (absolute
  /// simulated time). The VM's resources disappear at the deadline.
  using ReclaimHandler =
      std::function<void(const Vm& vm, sim::SimTime deadline)>;

  /// Placement policies. kBestFitCores packs cores tightly (what the
  /// cache manager wants for its own VMs); kSpread is a rotating
  /// first-fit that models a production allocator balancing load across
  /// the fleet — stranding then emerges from the core/memory shape
  /// mismatch rather than from artificial packing.
  enum class Placement { kBestFitCores, kSpread };

  /// Places a VM with the given shape. If `near_server` is set, only
  /// servers within `max_hops` switches of it are considered, preferring
  /// closer ones. `memory_only` requests a stranded-memory reservation:
  /// zero cores, placeable only on stranded servers.
  Result<Vm> Allocate(uint32_t cores, uint64_t memory_bytes, bool spot,
                      std::optional<net::ServerId> near_server = std::nullopt,
                      int max_hops = 5, bool memory_only = false,
                      std::string type_name = {},
                      Placement placement = Placement::kBestFitCores,
                      const std::vector<net::ServerId>* avoid_nodes =
                          nullptr);

  /// Releases a VM's resources. Unknown ids are ignored (idempotent).
  /// Freeing capacity fires every registered capacity waiter once.
  void Free(VmId id);

  /// Registers a one-shot callback fired (via the event queue, in
  /// registration order) the next time any VM frees capacity. Recovery
  /// paths park here instead of polling when allocation fails with
  /// ResourceExhausted.
  void WaitForCapacity(std::function<void()> cb);

  /// Registers the handler invoked when a spot VM gets a reclamation
  /// notice (at most one handler; the Redy cache manager).
  void SetReclaimHandler(ReclaimHandler handler) {
    reclaim_handler_ = std::move(handler);
  }

  /// Issues a reclamation notice for a spot VM: the handler fires now
  /// and the VM is force-freed `reclaim_notice` later.
  Status Reclaim(VmId id);

  /// Simulates a server crash: every VM on it vanishes immediately and
  /// the handler fires with a deadline of now (no early warning).
  void FailServer(net::ServerId server);

  const PhysicalServer& server(net::ServerId id) const {
    return servers_[id];
  }
  const Vm* Find(VmId id) const;
  sim::SimTime reclaim_notice() const { return reclaim_notice_; }
  int num_servers() const { return static_cast<int>(servers_.size()); }
  const net::Topology& topology() const { return *topology_; }

  /// Cluster-wide statistics used by the stranded-memory study.
  uint64_t TotalMemory() const;
  uint64_t UnallocatedMemory() const;
  uint64_t StrandedMemory() const;

  /// Stranded memory reachable from `from` within `max_hops` switches.
  uint64_t ReachableStranded(net::ServerId from, int max_hops) const;

  /// VMs currently resident on a server.
  std::vector<VmId> VmsOn(net::ServerId server) const;

 private:
  sim::Simulation* sim_;
  const net::Topology* topology_;
  sim::SimTime reclaim_notice_;
  std::vector<PhysicalServer> servers_;
  std::unordered_map<VmId, Vm> vms_;
  VmId next_id_ = 1;
  size_t spread_cursor_ = 0;
  ReclaimHandler reclaim_handler_;
  /// One-shot capacity waiters, fired in registration order on Free.
  std::vector<std::function<void()>> waiters_;
};

}  // namespace redy::cluster

#endif  // REDY_CLUSTER_VM_ALLOCATOR_H_
