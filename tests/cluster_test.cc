#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "cluster/trace.h"
#include "cluster/vm_allocator.h"
#include "cluster/vm_types.h"
#include "common/units.h"
#include "net/topology.h"
#include "sim/simulation.h"

namespace redy {
namespace {

using cluster::TraceConfig;
using cluster::Vm;
using cluster::VmAllocator;
using cluster::WorkloadTrace;

class VmAllocatorTest : public ::testing::Test {
 protected:
  VmAllocatorTest()
      : topo_(2, 2, 4),
        alloc_(&sim_, &topo_, /*cores=*/16, /*memory=*/64 * kGiB) {}

  sim::Simulation sim_;
  net::Topology topo_;
  VmAllocator alloc_;
};

TEST_F(VmAllocatorTest, AllocateAndFreeAccounting) {
  auto vm = alloc_.Allocate(4, 16 * kGiB, false);
  ASSERT_TRUE(vm.ok());
  const auto& s = alloc_.server(vm->server);
  EXPECT_EQ(s.cores_used, 4u);
  EXPECT_EQ(s.memory_used, 16 * kGiB);
  alloc_.Free(vm->id);
  EXPECT_EQ(alloc_.server(vm->server).cores_used, 0u);
  EXPECT_EQ(alloc_.UnallocatedMemory(), alloc_.TotalMemory());
}

TEST_F(VmAllocatorTest, RejectsWhenNoCapacity) {
  // Fill everything.
  for (int i = 0; i < 16; i++) {
    ASSERT_TRUE(alloc_.Allocate(16, 64 * kGiB, false).ok());
  }
  EXPECT_TRUE(alloc_.Allocate(1, kGiB, false).status().IsResourceExhausted());
}

TEST_F(VmAllocatorTest, NearServerPrefersCloser) {
  // Ask for a VM near server 0 with tight hops: must land in its rack.
  auto vm = alloc_.Allocate(4, 16 * kGiB, false, net::ServerId{0},
                            /*max_hops=*/1);
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(topo_.SwitchHops(0, vm->server), 1);
}

TEST_F(VmAllocatorTest, MemoryOnlyRequiresStrandedServer) {
  // No stranded servers yet.
  auto r = alloc_.Allocate(0, 2 * kGiB, false, std::nullopt, 5,
                           /*memory_only=*/true);
  EXPECT_TRUE(r.status().IsResourceExhausted());

  // Strand server: use all 16 cores but only part of the memory.
  auto vm = alloc_.Allocate(16, 8 * kGiB, false);
  ASSERT_TRUE(vm.ok());
  EXPECT_TRUE(alloc_.server(vm->server).stranded());

  auto r2 = alloc_.Allocate(0, 2 * kGiB, false, std::nullopt, 5, true);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->server, vm->server);
  EXPECT_TRUE(r2->memory_only);
}

TEST_F(VmAllocatorTest, StrandedMemoryAccounting) {
  auto vm = alloc_.Allocate(16, 8 * kGiB, false);
  ASSERT_TRUE(vm.ok());
  EXPECT_EQ(alloc_.StrandedMemory(), 56 * kGiB);
  // Reachability from another server in the same rack at 1 hop.
  net::ServerId other = vm->server == 0 ? 1 : 0;
  EXPECT_EQ(alloc_.ReachableStranded(other, 1), 56 * kGiB);
}

TEST_F(VmAllocatorTest, SpotReclaimGivesNoticeThenFrees) {
  auto vm = alloc_.Allocate(4, 16 * kGiB, /*spot=*/true);
  ASSERT_TRUE(vm.ok());

  bool notified = false;
  sim::SimTime deadline = 0;
  alloc_.SetReclaimHandler([&](const Vm& v, sim::SimTime d) {
    notified = true;
    deadline = d;
    EXPECT_EQ(v.id, vm->id);
  });
  ASSERT_TRUE(alloc_.Reclaim(vm->id).ok());
  EXPECT_TRUE(notified);
  EXPECT_EQ(deadline, sim_.Now() + 30 * kSecond);
  // VM still alive until the deadline.
  EXPECT_NE(alloc_.Find(vm->id), nullptr);
  sim_.RunUntil(deadline + 1);
  EXPECT_EQ(alloc_.Find(vm->id), nullptr);
}

TEST_F(VmAllocatorTest, ReclaimNonSpotFails) {
  auto vm = alloc_.Allocate(4, 16 * kGiB, /*spot=*/false);
  ASSERT_TRUE(vm.ok());
  EXPECT_TRUE(alloc_.Reclaim(vm->id).IsFailedPrecondition());
}

TEST_F(VmAllocatorTest, FailServerEvictsEverything) {
  auto vm1 = alloc_.Allocate(4, 16 * kGiB, false);
  ASSERT_TRUE(vm1.ok());
  int notices = 0;
  alloc_.SetReclaimHandler(
      [&](const Vm&, sim::SimTime d) {
        notices++;
        EXPECT_EQ(d, sim_.Now());  // no early warning on failure
      });
  alloc_.FailServer(vm1->server);
  EXPECT_EQ(notices, 1);
  EXPECT_EQ(alloc_.Find(vm1->id), nullptr);
}

// --- Capacity waitlist fairness (DESIGN.md §12) -----------------------------
//
// Recovery paths park on WaitForCapacity when allocation fails; under a
// reclamation storm many of them re-arm continuously. The waitlist must
// stay FIFO so the oldest parked recovery is never starved by newer
// arrivals.

TEST_F(VmAllocatorTest, CapacityWaitersFireInRegistrationOrder) {
  auto vm = alloc_.Allocate(4, 16 * kGiB, false);
  ASSERT_TRUE(vm.ok());
  std::vector<int> fired;
  for (int i = 0; i < 4; i++) {
    alloc_.WaitForCapacity([&fired, i] { fired.push_back(i); });
  }
  alloc_.Free(vm->id);
  sim_.RunFor(1);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  // One-shot: the next capacity event fires nobody again.
  auto vm2 = alloc_.Allocate(4, 16 * kGiB, false);
  ASSERT_TRUE(vm2.ok());
  alloc_.Free(vm2->id);
  sim_.RunFor(1);
  EXPECT_EQ(fired.size(), 4u);
}

TEST_F(VmAllocatorTest, WaiterStormDoesNotStarveOldestWaiter) {
  // The oldest waiter and four storm waiters all re-arm from inside
  // their callbacks, round after round. Because firing is registration-
  // ordered and the oldest re-registers first (its callback runs
  // first), it must lead every round — a storm of re-arming newcomers
  // cannot push it back in line.
  std::vector<int> order;
  std::function<void()> oldest = [&] {
    order.push_back(0);
    alloc_.WaitForCapacity(oldest);
  };
  alloc_.WaitForCapacity(oldest);
  std::function<void()> storm[4];
  for (int i = 0; i < 4; i++) {
    storm[i] = [&, i] {
      order.push_back(i + 1);
      alloc_.WaitForCapacity(storm[i]);
    };
    alloc_.WaitForCapacity(storm[i]);
  }
  for (int round = 0; round < 3; round++) {
    auto vm = alloc_.Allocate(4, 16 * kGiB, false);
    ASSERT_TRUE(vm.ok());
    order.clear();
    alloc_.Free(vm->id);
    sim_.RunFor(1);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}))
        << "round " << round << ": oldest waiter must fire first";
  }
}

TEST(VmTypesTest, MenuIsSane) {
  auto menu = cluster::DefaultVmMenu();
  ASSERT_FALSE(menu.empty());
  for (const auto& t : menu) {
    EXPECT_GT(t.cores, 0u);
    EXPECT_GT(t.memory_bytes, 0u);
    EXPECT_GT(t.price_per_hour, 0.0);
    EXPECT_LT(t.spot_price_per_hour, t.price_per_hour);
  }
  auto stranded = cluster::StrandedMemoryType(8 * kGiB);
  EXPECT_EQ(stranded.cores, 0u);
  EXPECT_LT(stranded.price_per_hour, 0.01);
}

TEST(WorkloadTraceTest, ReproducesPaperScaleStatistics) {
  // Small-but-representative cluster; the paper reports 46% median
  // unallocated and ~8% median stranded memory. The synthetic trace
  // should land in the same regime (Section 2.1).
  sim::Simulation sim;
  net::Topology topo(2, 4, 20);
  VmAllocator alloc(&sim, &topo, 64, 448 * kGiB);
  TraceConfig cfg;
  cfg.warmup = 2 * kHour;
  cfg.duration = 6 * kHour;
  cfg.seed = 7;
  WorkloadTrace trace(&sim, &alloc, cfg);
  trace.Run();

  ASSERT_GT(trace.vms_started(), 1000u);
  const double unalloc = WorkloadTrace::MedianUnallocated(trace.samples());
  const double stranded = WorkloadTrace::MedianStranded(trace.samples());
  EXPECT_GT(unalloc, 0.25);
  EXPECT_LT(unalloc, 0.65);
  EXPECT_GT(stranded, 0.02);
  EXPECT_LT(stranded, 0.25);

  // Stranding events exist and have minute-scale durations.
  ASSERT_GT(trace.stranding_durations().size(), 20u);
  std::vector<uint64_t> d = trace.stranding_durations();
  std::sort(d.begin(), d.end());
  const double median_min = ToSeconds(d[d.size() / 2]) / 60.0;
  EXPECT_GT(median_min, 1.0);
  EXPECT_LT(median_min, 60.0);
}

TEST(WorkloadTraceTest, DeterministicForSameSeed) {
  auto run = [] {
    sim::Simulation sim;
    net::Topology topo(1, 2, 10);
    VmAllocator alloc(&sim, &topo, 32, 128 * kGiB);
    TraceConfig cfg;
    cfg.warmup = kHour;
    cfg.duration = 2 * kHour;
    cfg.seed = 123;
    WorkloadTrace trace(&sim, &alloc, cfg);
    trace.Run();
    return trace.vms_started();
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace redy
