#ifndef REDY_CLUSTER_FLEET_H_
#define REDY_CLUSTER_FLEET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/trace.h"
#include "cluster/vm_allocator.h"
#include "common/cache_line.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/units.h"
#include "net/fabric_params.h"
#include "net/link.h"
#include "net/topology.h"
#include "redy/overload.h"
#include "sim/poller.h"
#include "sim/sharded.h"
#include "telemetry/metrics.h"

namespace redy::cluster {

/// Fleet-scale multi-tenant campaign model (DESIGN.md §14). One
/// ShardedEngine partition per rack; each partition owns its rack's
/// VM allocator + compressed diurnal workload trace (the stranded
/// memory supply), its cache servers' NIC links and pacing state, the
/// tenants homed there, and a per-rack metrics registry. A manager
/// stand-in on partition 0 (Redy's cache manager, Fig. 4) receives
/// periodic capacity reports and grants region placements, all over
/// cross-partition messages, so every piece of state has exactly one
/// owning partition and same-seed runs are byte-identical at any
/// worker count.
struct FleetOptions {
  // Topology (defaults: 1024 servers across 32 racks).
  int pods = 4;
  int racks_per_pod = 8;
  int servers_per_rack = 32;
  net::FabricParams fabric;

  // Physical server shape (matches the Fig. 1 study: core-heavy VM
  // mixes exhaust 64 cores long before 512 GiB, which is what strands
  // memory for the cache to harvest).
  uint32_t cores_per_server = 64;
  uint64_t memory_per_server = 512 * kGiB;

  // Tenants (defaults: 128, in three SLO classes).
  uint32_t tenants = 128;
  uint32_t regions_per_tenant = 4;
  uint64_t region_bytes = 4 * kGiB;
  double read_fraction = 0.95;

  // Compressed cluster trace: lifetime medians in milliseconds and a
  // time-lapsed "day", so the Fig. 1-2 stranding dynamics (and the
  // diurnal demand swing) play out within a run of tens of ms. The
  // utilization target is above the figure benches' 0.89 to offset the
  // ramp-up: occupancy reaches target*(1 - e^(-t/mean_lifetime)), and
  // a ms-scale run only gets a few mean lifetimes of warmup.
  double short_median_ms = 1.0;
  double long_median_ms = 6.0;
  double target_core_utilization = 0.93;
  sim::SimTime diurnal_period = 40 * kMillisecond;
  double diurnal_amplitude = 1.0 / 3.0;

  // Phases: trace-only warmup (stranding builds up), then served
  // traffic until warmup + duration.
  sim::SimTime warmup = 10 * kMillisecond;
  sim::SimTime duration = 20 * kMillisecond;

  // Admission machinery (PR 7): per-tenant token-bucket quota, retry
  // budget, per-target circuit breakers, server-side busy shedding.
  double quota_ops_per_sec = 3.0e6;
  double quota_burst = 64;
  double retry_fraction = 0.2;
  uint32_t server_busy_depth = 96;

  // Control-plane cadence.
  sim::SimTime sample_interval = 500 * kMicrosecond;
  sim::SimTime metrics_window = 5 * kMillisecond;

  // Execution.
  uint32_t workers = 1;
  uint64_t seed = 42;
};

/// One tenant service class (Storm-style mix: latency-bound caches,
/// balanced request/response services, throughput-bound scan/batch).
struct TenantClass {
  const char* name;
  uint32_t record_bytes;
  uint32_t streams;  // closed-loop depth
  sim::SimTime slo_ns;
  sim::SimTime think_ns;
};

class Fleet {
 public:
  explicit Fleet(const FleetOptions& opts);
  ~Fleet();

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Runs warmup + duration on the sharded engine.
  void Run();

  /// Deterministic fleet-wide telemetry snapshot: each rack's metrics
  /// registry JSON concatenated in rack order. Byte-identical across
  /// worker counts for the same seed — the campaign's determinism
  /// regression compares these.
  std::string MetricsSnapshot();

  struct ClassStat {
    std::string name;
    uint64_t ops_ok = 0;
    uint64_t slo_violations = 0;
    uint64_t p50_ns = 0;
    uint64_t p99_ns = 0;
  };

  struct Summary {
    // Served traffic.
    uint64_t ops_ok = 0;
    uint64_t ops_rejected = 0;   // tenant quota (fail fast)
    uint64_t ops_busy = 0;       // kBusy pushback seen
    uint64_t ops_failed = 0;     // retry budget exhausted / region lost
    uint64_t ops_shed = 0;       // circuit breaker open
    uint64_t ops_local = 0;      // brownout: served from local memory
    uint64_t slo_violations = 0;
    std::vector<ClassStat> classes;
    // Harvest supply and control plane.
    uint64_t vms_started = 0;
    double median_stranded_fraction = 0.0;
    uint64_t evictions = 0;
    uint64_t placements = 0;
    uint64_t place_failures = 0;
    uint64_t region_losses = 0;
    std::vector<uint64_t> stranding_durations_ns;  // completed events
    /// Per-server stranded bytes reachable within 3 switches at end of
    /// run, sorted ascending (the Fig. 1 distribution, fleet-wide).
    std::vector<uint64_t> reachable_stranded_3hop;
  };
  Summary Summarize() const;

  sim::ShardedEngine& engine() { return *engine_; }
  const net::Topology& topology() const { return topo_; }
  const FleetOptions& options() const { return opts_; }
  sim::SimTime end_time() const { return opts_.warmup + opts_.duration; }

 private:
  struct Region {
    net::ServerId server = net::kInvalidServer;  // global id
    uint32_t id = 0;   // per-tenant placement generation
    bool remote = false;  // false: local-memory brownout fallback
  };

  /// Written only by events on the tenant's home partition: `rng` and
  /// `quota` on every op, the counters and breakers on most. Other
  /// partitions never read it (they derive what they need from the id,
  /// see HomeRackOf), and it fills whole lines of its own, since
  /// neighbours in `tenants_` are homed on racks of other workers.
  struct alignas(kCacheLineBytes) Tenant {
    uint32_t id = 0;
    uint32_t cls = 0;
    uint32_t home_rack = 0;
    net::ServerId home_server = 0;  // global id
    Rng rng{0};
    overload::TokenBucket quota;
    overload::RetryBudget retry;
    /// Per-target-server breakers; tenants touch a handful of servers,
    /// so a small linear map suffices.
    std::vector<std::pair<net::ServerId, overload::CircuitBreaker>>
        breakers;
    std::vector<Region> regions;
    uint32_t next_region_id = 1;
    // Home-rack registry metrics (registered at build).
    telemetry::Counter* ops_ok = nullptr;
    telemetry::Counter* ops_rejected = nullptr;
    telemetry::Counter* ops_busy = nullptr;
    telemetry::Counter* ops_failed = nullptr;
    telemetry::Counter* ops_shed = nullptr;
    telemetry::Counter* ops_local = nullptr;
    telemetry::Counter* slo_violations = nullptr;
    telemetry::Counter* region_losses = nullptr;
    telemetry::WindowedHistogram* latency = nullptr;
  };
  static_assert(alignof(Tenant) == kCacheLineBytes);

  /// Cache-server-side state, owned by the server's rack partition.
  struct ServerState {
    explicit ServerState(const net::FabricParams* params) : tx(params) {}
    net::Link tx;                 // egress serialization (requests and
                                  // responses share the port direction)
    sim::SimTime next_issue = 0;  // WQE pacing
    uint32_t in_service = 0;
    uint64_t harvest_capacity = 0;  // stranded bytes available
    uint64_t in_use = 0;            // bytes occupied by regions
    std::vector<uint64_t> installed;  // (tenant << 32 | region id)
  };

  struct RackState {
    uint32_t rack = 0;
    net::Topology local_topo{1, 1, 1};
    std::unique_ptr<VmAllocator> alloc;
    std::unique_ptr<WorkloadTrace> trace;
    std::unique_ptr<telemetry::MetricsRegistry> metrics;
    std::unique_ptr<sim::Poller> sampler;
    std::vector<ServerState> servers;  // local index
    std::vector<uint32_t> tenants;     // tenant ids homed here
    telemetry::Counter* evictions = nullptr;
    telemetry::Gauge* harvested_bytes = nullptr;
    telemetry::Gauge* regions_hosted = nullptr;
    telemetry::Gauge* stranded_permille = nullptr;
  };

  /// Manager stand-in, owned by partition 0.
  struct Manager {
    std::vector<uint64_t> headroom;  // per global server, last report
    telemetry::Counter* placements = nullptr;
    telemetry::Counter* place_failures = nullptr;
  };

  enum class OpStatus : uint8_t { kOk, kBusy, kUnavailable };

  uint32_t RackOfServer(net::ServerId s) const {
    return static_cast<uint32_t>(s) /
           static_cast<uint32_t>(opts_.servers_per_rack);
  }
  /// A tenant's home rack, home server and class follow from its id.
  /// BuildTenants fills the Tenant's copies from these, and other
  /// partitions call them instead of reading the Tenant, whose lines
  /// its home worker writes on every op.
  uint32_t HomeRackOf(uint32_t tenant) const {
    return tenant % static_cast<uint32_t>(topo_.num_racks());
  }
  net::ServerId HomeServerOf(uint32_t tenant) const;
  static uint32_t ClassOf(uint32_t tenant);
  /// One-way control/data latency between racks (representative
  /// servers); small intra-rack constant when equal.
  sim::SimTime RackDelay(uint32_t a, uint32_t b) const;
  ServerState& StateOf(net::ServerId s) {
    return racks_[RackOfServer(s)]->servers[static_cast<uint32_t>(s) %
                                            opts_.servers_per_rack];
  }

  void BuildRack(uint32_t r);
  void BuildTenants();
  void SampleRack(RackState& rack);

  // Tenant-side op lifecycle (all run on the tenant's home partition).
  void IssueFresh(Tenant& t);
  void Dispatch(Tenant& t, uint32_t slot, bool is_read, sim::SimTime issued,
                uint32_t attempt);
  void OnOpDone(Tenant& t, net::ServerId target, uint32_t slot,
                uint32_t rid, bool is_read, OpStatus status,
                sim::SimTime issued, uint32_t attempt);
  void Complete(Tenant& t, sim::SimTime issued);
  void ScheduleNext(Tenant& t);
  overload::CircuitBreaker& BreakerFor(Tenant& t, net::ServerId s);

  // Server side (runs on the serving rack's partition). Reads no tenant
  // state: the tenant's home and class come from its id.
  void ServeOp(net::ServerId s, uint32_t tenant, uint32_t slot,
               uint32_t rid, bool is_read, sim::SimTime issued,
               uint32_t attempt);

  // Control plane.
  void RequestPlacement(Tenant& t, uint32_t slot);
  void ManagerPlace(uint32_t tenant, uint32_t slot, uint32_t rid);
  void OnRegionLost(uint32_t tenant, uint32_t region_id);

  FleetOptions opts_;
  net::Topology topo_;
  sim::SimTime lookahead_ = 0;
  sim::SimTime traffic_start_ = 0;
  sim::SimTime end_ = 0;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::vector<std::unique_ptr<RackState>> racks_;
  std::vector<Tenant> tenants_;
  Manager manager_;
};

/// The three tenant classes the campaign serves.
const TenantClass* FleetTenantClasses(size_t* count);

}  // namespace redy::cluster

#endif  // REDY_CLUSTER_FLEET_H_
