#ifndef REDY_RDMA_NIC_H_
#define REDY_RDMA_NIC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/units.h"

#include "net/fabric_params.h"
#include "net/link.h"
#include "net/topology.h"
#include "rdma/fault_hooks.h"
#include "rdma/memory_region.h"
#include "sim/simulation.h"

namespace redy::telemetry {
class Counter;
class SpanTracer;
class Telemetry;
}  // namespace redy::telemetry

namespace redy::rdma {

class Fabric;
class QueuePair;

/// The RDMA NIC of one server. Registers memory regions, owns the
/// transmit link (whose serialization produces load-dependent latency),
/// and tracks the queue pairs created on it. Fail() models a server/VM
/// crash: every connected QP flushes with error completions.
///
/// Like QueuePair, the NIC doubles as the backend seam: the base class
/// is the simulated implementation, and the socket backend subclasses
/// it (transport::SocketNic) to hand out socket-backed queue pairs and
/// a thread-safe region table for its responder workers (DESIGN.md
/// §13).
class Nic {
 public:
  Nic(sim::Simulation* sim, Fabric* fabric, net::ServerId server);
  virtual ~Nic();

  Nic(const Nic&) = delete;
  Nic& operator=(const Nic&) = delete;

  /// Registers `bytes` of fresh memory; the NIC owns the region.
  virtual MemoryRegion* RegisterMemory(uint64_t bytes);

  /// Deregisters a region: remote accesses start failing.
  virtual void DeregisterMemory(MemoryRegion* mr);

  /// The registered, still-valid region under `rkey`, or nullptr. The
  /// epoch fence is the responder's (rdma/responder.h).
  MemoryRegion* Resolve(uint32_t rkey) const;

  /// Creates a queue pair on this NIC (unconnected).
  virtual QueuePair* CreateQueuePair(uint32_t max_depth);
  virtual void DestroyQueuePair(QueuePair* qp);

  /// Models the NIC (its server/VM) going away. All QPs flush.
  virtual void Fail();
  bool failed() const { return failed_; }

  /// Earliest time a completion on this NIC may be delivered, honoring
  /// any injected gray-failure stall window (identity when no fault
  /// hooks are installed).
  sim::SimTime ReleaseTime(sim::SimTime t) const;

  sim::Simulation* sim() const { return sim_; }
  Fabric* fabric() const { return fabric_; }
  net::ServerId server() const { return server_; }
  net::Link& tx_link() { return tx_link_; }
  const net::FabricParams& params() const;

  /// Total bytes of registered regions (diagnostics).
  uint64_t registered_bytes() const { return registered_bytes_; }

  /// Telemetry: per-NIC WQE counters, lazily registered under the
  /// fabric's telemetry with a {"server": N} label. No-ops (and cost
  /// one branch) when the fabric has no telemetry installed.
  void CountWqePosted();
  void CountWqeCompleted(bool ok);
  /// Counts a WQE rejected by the fence (stale epoch / dropped MR):
  /// "rdma.protection_errors" with the same {"server": N} label.
  void CountProtectionError();
  /// Chain telemetry ("rdma.chain_posted" / "rdma.chain_hops" /
  /// "rdma.chain_aborted"): one posted per doorbell, one hop per link
  /// the responder NIC actually executed, one aborted per chain that
  /// poisoned mid-flight.
  void CountChainPosted();
  void CountChainHop();
  void CountChainAborted();

 protected:
  friend class QueuePair;

  sim::Simulation* sim_;
  Fabric* fabric_;
  net::ServerId server_;
  net::Link tx_link_;
  bool failed_ = false;
  uint32_t next_key_ = 1;
  uint64_t registered_bytes_ = 0;
  std::unordered_map<uint32_t, std::unique_ptr<MemoryRegion>> regions_;
  std::deque<std::pair<sim::SimTime, std::unique_ptr<MemoryRegion>>>
      retired_regions_;
  std::vector<QueuePair*> qps_;
  std::vector<std::unique_ptr<QueuePair>> owned_qps_;
  telemetry::Counter* wqe_posted_ = nullptr;
  telemetry::Counter* wqe_completed_ = nullptr;
  telemetry::Counter* wqe_errors_ = nullptr;
  telemetry::Counter* protection_errors_ = nullptr;
  telemetry::Counter* chain_posted_ = nullptr;
  telemetry::Counter* chain_hops_ = nullptr;
  telemetry::Counter* chain_aborted_ = nullptr;
};

/// The fabric connects NICs through the data-center topology and owns
/// the calibrated timing parameters. NicAt is the backend seam's root:
/// the base class hands out simulated NICs; transport::SocketFabric
/// overrides it to hand out socket-backed ones.
class Fabric {
 public:
  Fabric(sim::Simulation* sim, net::Topology topology,
         net::FabricParams params = {});
  virtual ~Fabric() = default;

  /// Returns (creating on first use) the NIC of a server.
  virtual Nic* NicAt(net::ServerId server);

  /// One-way propagation latency between two servers.
  uint64_t OneWayNs(net::ServerId a, net::ServerId b) const {
    return params_.OneWayNs(topology_.SwitchHops(a, b));
  }
  int SwitchHops(net::ServerId a, net::ServerId b) const {
    return topology_.SwitchHops(a, b);
  }

  sim::Simulation* sim() const { return sim_; }
  const net::Topology& topology() const { return topology_; }
  const net::FabricParams& params() const { return params_; }

  /// Installs (or clears, with nullptr) the fault-injection hooks the
  /// fabric consults on every transfer. Not owned.
  void set_fault_hooks(FaultHooks* hooks) { fault_hooks_ = hooks; }
  FaultHooks* fault_hooks() const { return fault_hooks_; }

  /// Installs (or clears, with nullptr) the telemetry domain the NICs
  /// and queue pairs instrument themselves with. Not owned. Same
  /// pattern as the fault hooks: nullptr means no instrumentation.
  void set_telemetry(telemetry::Telemetry* telemetry) {
    telemetry_ = telemetry;
  }
  telemetry::Telemetry* telemetry() const { return telemetry_; }

  /// Stable per-fabric queue-pair ordinal for trace track naming.
  uint64_t NextQpTraceId() { return next_qp_trace_id_++; }
  /// Fabric-wide event lane ("nic failed", topology-level instants);
  /// lazily registered with `tracer`.
  uint32_t FabricTraceTrack(telemetry::SpanTracer& tracer);

 protected:
  sim::Simulation* sim_;
  net::Topology topology_;
  net::FabricParams params_;
  FaultHooks* fault_hooks_ = nullptr;
  telemetry::Telemetry* telemetry_ = nullptr;
  uint64_t next_qp_trace_id_ = 1;
  uint32_t fabric_trace_track_ = 0;
  std::unordered_map<net::ServerId, std::unique_ptr<Nic>> nics_;
};

}  // namespace redy::rdma

#endif  // REDY_RDMA_NIC_H_
