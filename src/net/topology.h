#ifndef REDY_NET_TOPOLOGY_H_
#define REDY_NET_TOPOLOGY_H_

#include <cstdint>

#include "net/fabric_params.h"

namespace redy::net {

/// Identifies a physical server in the data center.
using ServerId = uint32_t;
inline constexpr ServerId kInvalidServer = UINT32_MAX;

/// Three-tier data-center topology: servers -> racks (ToR switch) ->
/// pods (aggregation) -> core. Distances come out as the paper's three
/// network distances: 1 switch (same rack), 3 switches (same pod),
/// 5 switches (across pods).
class Topology {
 public:
  Topology(int pods, int racks_per_pod, int servers_per_rack)
      : pods_(pods),
        racks_per_pod_(racks_per_pod),
        servers_per_rack_(servers_per_rack) {}

  int pods() const { return pods_; }
  int racks_per_pod() const { return racks_per_pod_; }
  int servers_per_rack() const { return servers_per_rack_; }
  int num_servers() const {
    return pods_ * racks_per_pod_ * servers_per_rack_;
  }

  int RackOf(ServerId s) const {
    return static_cast<int>(s) / servers_per_rack_;
  }
  int PodOf(ServerId s) const {
    return RackOf(s) / racks_per_pod_;
  }

  /// Number of switches a packet traverses between two servers:
  /// 0 if same server, 1 intra-rack, 3 intra-pod, 5 inter-pod.
  int SwitchHops(ServerId a, ServerId b) const {
    if (a == b) return 0;
    if (RackOf(a) == RackOf(b)) return 1;
    if (PodOf(a) == PodOf(b)) return 3;
    return 5;
  }

  int num_racks() const { return pods_ * racks_per_pod_; }

  /// Minimum switch hops between any two servers in *different* racks:
  /// 3 when some pod holds more than one rack, 5 when racks only meet
  /// across pods, 0 when the topology has a single rack (no cross-rack
  /// pair exists). This is the conservative-lookahead anchor for the
  /// sharded engine: no event can cross a rack boundary over fewer
  /// switches than this.
  int MinCrossRackHops() const {
    if (racks_per_pod_ > 1) return 3;
    if (pods_ > 1) return 5;
    return 0;
  }

 private:
  int pods_;
  int racks_per_pod_;
  int servers_per_rack_;
};

/// Minimum one-way latency (ns) of any cross-rack message on this
/// topology — the propagation floor of MinCrossRackHops() switches.
/// Serialization, NIC, and queueing delays only add to it, so it is a
/// safe conservative lookahead for rack-partitioned simulation
/// (sim::ShardedEngine): an event posted across a rack boundary at
/// time t cannot take effect before t + this. Returns 0 for a
/// single-rack topology (no cross-rack messages exist; such a fleet
/// is a single partition and needs no lookahead).
inline uint64_t MinCrossRackLatencyNs(const Topology& topology,
                                      const FabricParams& params) {
  const int hops = topology.MinCrossRackHops();
  return hops == 0 ? 0 : params.OneWayNs(hops);
}

}  // namespace redy::net

#endif  // REDY_NET_TOPOLOGY_H_
