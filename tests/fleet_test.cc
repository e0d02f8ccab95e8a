#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/fleet.h"
#include "common/units.h"

namespace redy {
namespace {

using cluster::Fleet;
using cluster::FleetOptions;

// A fleet small enough for unit tests: 2 pods x 2 racks x 4 servers,
// 12 tenants, a few simulated milliseconds. Counts below are asserted
// structurally (> 0, invariants between counters) rather than as exact
// values, so the tests hold across libm implementations; exactness
// across worker counts is covered by the byte-compare test.
FleetOptions SmallFleet() {
  FleetOptions o;
  o.pods = 2;
  o.racks_per_pod = 2;
  o.servers_per_rack = 4;
  // Small servers pack to zero free cores far more often than the
  // 64-core default, so even a 16-server fleet strands reliably.
  o.cores_per_server = 16;
  o.memory_per_server = 192 * kGiB;
  o.tenants = 12;
  o.regions_per_tenant = 2;
  o.warmup = 4 * kMillisecond;
  o.duration = 6 * kMillisecond;
  o.seed = 7;
  return o;
}

TEST(FleetTest, ServesTrafficOutOfHarvestedMemory) {
  Fleet fleet(SmallFleet());
  fleet.Run();
  const Fleet::Summary s = fleet.Summarize();

  // Traffic was served, and the control plane placed remote regions.
  EXPECT_GT(s.ops_ok, 0u);
  EXPECT_GT(s.placements, 0u);
  EXPECT_GT(s.vms_started, 0u);
  EXPECT_GT(s.median_stranded_fraction, 0.0);

  // Per-class stats partition the fleet totals.
  uint64_t class_ops = 0, class_slo = 0;
  for (const auto& c : s.classes) {
    class_ops += c.ops_ok;
    class_slo += c.slo_violations;
    if (c.ops_ok > 0) {
      EXPECT_GT(c.p50_ns, 0u);
      EXPECT_GE(c.p99_ns, c.p50_ns);
    }
  }
  EXPECT_EQ(class_ops, s.ops_ok);
  EXPECT_EQ(class_slo, s.slo_violations);

  // A region can only be lost to an eviction.
  EXPECT_LE(s.region_losses, s.evictions);

  // The Fig. 1 reachability distribution covers every server.
  EXPECT_EQ(s.reachable_stranded_3hop.size(),
            static_cast<size_t>(fleet.topology().num_servers()));
}

TEST(FleetTest, SameSeedWorkerCountsAreByteIdentical) {
  FleetOptions a = SmallFleet();
  a.workers = 1;
  Fleet one(a);
  one.Run();
  const std::string s1 = one.MetricsSnapshot();
  ASSERT_FALSE(s1.empty());

  for (uint32_t workers : {2u, 3u, 4u}) {
    FleetOptions b = SmallFleet();
    b.workers = workers;
    Fleet sharded(b);
    sharded.Run();
    EXPECT_EQ(s1, sharded.MetricsSnapshot())
        << workers << "-worker run diverged from single-threaded run";

    // Engine-level accounting agrees too, not just the telemetry.
    EXPECT_EQ(one.engine().events_executed(),
              sharded.engine().events_executed())
        << workers << " workers";
    EXPECT_EQ(one.engine().messages_sent(), sharded.engine().messages_sent())
        << workers << " workers";
    EXPECT_EQ(one.engine().rounds(), sharded.engine().rounds())
        << workers << " workers";
  }
}

TEST(FleetTest, BrownsOutToLocalMemoryBeforePlacement) {
  // With almost no warmup the first placement requests find an empty
  // headroom table at the manager and get deferred; tenants must keep
  // serving from local memory (Redy's brownout fallback) meanwhile.
  FleetOptions o = SmallFleet();
  o.warmup = 1 * kMillisecond;
  o.duration = 3 * kMillisecond;
  Fleet fleet(o);
  fleet.Run();
  const Fleet::Summary s = fleet.Summarize();
  EXPECT_GT(s.ops_local, 0u);
  EXPECT_GT(s.ops_ok, 0u);
}

TEST(FleetTest, EvictionPressureRevokesRegions) {
  // Shrink the servers and fatten the regions so VM arrivals collide
  // with installed regions: the rack reclaims (newest-first) and the
  // tenant sees OnRegionLost and re-places.
  // Tight memory: a memory-heavy VM mix can push a 16-core server to
  // ~128 GiB used, leaving less free than the installed regions.
  FleetOptions o = SmallFleet();
  o.memory_per_server = 128 * kGiB;
  o.region_bytes = 8 * kGiB;
  o.regions_per_tenant = 4;
  o.warmup = 4 * kMillisecond;
  o.duration = 8 * kMillisecond;
  Fleet fleet(o);
  fleet.Run();
  const Fleet::Summary s = fleet.Summarize();
  EXPECT_GT(s.evictions, 0u);
  EXPECT_LE(s.region_losses, s.evictions);
  // Lost regions are re-requested, so placements outnumber the
  // steady-state region count.
  EXPECT_GT(s.placements, 0u);
}

}  // namespace
}  // namespace redy
