#include <gtest/gtest.h>

#include "net/fabric_params.h"
#include "net/link.h"
#include "net/topology.h"

namespace redy {
namespace {

using net::FabricParams;
using net::Link;
using net::Topology;

TEST(TopologyTest, SwitchHopsMatchDataCenterTiers) {
  // 2 pods x 3 racks x 4 servers.
  Topology t(2, 3, 4);
  EXPECT_EQ(t.num_servers(), 24);
  EXPECT_EQ(t.SwitchHops(0, 0), 0);   // same server
  EXPECT_EQ(t.SwitchHops(0, 3), 1);   // same rack (ToR)
  EXPECT_EQ(t.SwitchHops(0, 4), 3);   // same pod, different rack
  EXPECT_EQ(t.SwitchHops(0, 23), 5);  // different pod
  // Symmetry.
  for (net::ServerId a : {0u, 5u, 13u}) {
    for (net::ServerId b : {2u, 11u, 23u}) {
      EXPECT_EQ(t.SwitchHops(a, b), t.SwitchHops(b, a));
    }
  }
}

TEST(TopologyTest, MinCrossRackHopsCoversTheThreeShapes) {
  // Several racks share a pod: the closest cross-rack pair is
  // intra-pod (3 switches).
  EXPECT_EQ(Topology(2, 3, 4).MinCrossRackHops(), 3);
  EXPECT_EQ(Topology(1, 8, 32).MinCrossRackHops(), 3);
  // One rack per pod: racks only meet across pods (5 switches).
  EXPECT_EQ(Topology(4, 1, 8).MinCrossRackHops(), 5);
  // Single rack: no cross-rack pair exists.
  EXPECT_EQ(Topology(1, 1, 16).MinCrossRackHops(), 0);
}

TEST(TopologyTest, MinCrossRackLatencyIsTheLookaheadFloor) {
  FabricParams p;
  const Topology pod_shape(4, 8, 32);
  // The conservative-lookahead anchor: the propagation floor of the
  // minimum cross-rack hop count. With defaults: 600 + 3*250 ns.
  EXPECT_EQ(net::MinCrossRackLatencyNs(pod_shape, p), p.OneWayNs(3));
  EXPECT_EQ(net::MinCrossRackLatencyNs(pod_shape, p), 1350u);
  EXPECT_EQ(net::MinCrossRackLatencyNs(Topology(4, 1, 8), p), p.OneWayNs(5));
  EXPECT_EQ(net::MinCrossRackLatencyNs(Topology(1, 1, 16), p), 0u);
  // No cross-rack message can undercut the lookahead: every cross-rack
  // hop count's one-way time is >= the floor.
  const Topology& t = pod_shape;
  const uint64_t floor = net::MinCrossRackLatencyNs(t, p);
  EXPECT_GE(p.OneWayNs(t.SwitchHops(0, 40)), floor);    // intra-pod
  EXPECT_GE(p.OneWayNs(t.SwitchHops(0, 1000)), floor);  // cross-pod
}

TEST(FabricParamsTest, OneWayGrowsWithHops) {
  FabricParams p;
  EXPECT_LT(p.OneWayNs(1), p.OneWayNs(3));
  EXPECT_LT(p.OneWayNs(3), p.OneWayNs(5));
  // 3-switch round trip matches the paper's ~2.9us median network RTT.
  const double rtt_us = 2.0 * p.OneWayNs(3) / 1000.0;
  EXPECT_GT(rtt_us, 2.0);
  EXPECT_LT(rtt_us, 3.5);
}

TEST(FabricParamsTest, WireTimeScalesWithBytes) {
  FabricParams p;
  // 100 Gb/s: one MiB of payload serializes in ~84us.
  const uint64_t t1 = p.WireTimeNs(1 << 20);
  EXPECT_NEAR(static_cast<double>(t1), 84e3, 10e3);
  EXPECT_LT(p.WireTimeNs(8), p.WireTimeNs(4096));
}

TEST(LinkTest, BackToBackTransfersQueue) {
  FabricParams p;
  Link link(&p);
  const auto end1 = link.Reserve(0, 1 << 20);
  const auto end2 = link.Reserve(0, 1 << 20);
  EXPECT_GT(end2, end1);
  EXPECT_NEAR(static_cast<double>(end2), 2.0 * static_cast<double>(end1),
              static_cast<double>(end1) * 0.05);
  // A transfer requested after the link idles starts immediately.
  const auto end3 = link.Reserve(end2 + 1000, 0);
  EXPECT_GE(end3, end2 + 1000);
  EXPECT_EQ(link.bytes_sent(), 2ull * (1 << 20));
}

}  // namespace
}  // namespace redy
