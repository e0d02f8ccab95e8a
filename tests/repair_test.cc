// Tests for the re-replication repair loop of the recovery supervisor:
// restoring the replication factor after failover (with anti-affinity),
// parking on the allocator's capacity waitlist when the cluster is
// full, bounded give-up, and leak-freedom of the target allocations.

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "cluster/vm_allocator.h"
#include "redy/cache_client.h"
#include "redy/testbed.h"

namespace redy {
namespace {

class RepairTest : public ::testing::Test {
 protected:
  static TestbedOptions Opts() {
    TestbedOptions o;
    o.pods = 2;
    o.racks_per_pod = 2;
    o.servers_per_rack = 4;
    o.client.region_bytes = 2 * kMiB;
    return o;
  }

  template <typename Pred>
  static bool RunUntil(Testbed& tb, Pred pred, int max_steps = 20'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) return true;
      if (!tb.sim().Step()) return pred();
    }
    return pred();
  }

  static bool AllReplicated(Testbed& tb, CacheClient::CacheId id,
                            uint32_t regions) {
    for (uint32_t r = 0; r < regions; r++) {
      auto rep = tb.client().RegionReplicated(id, r);
      if (!rep.ok() || !*rep) return false;
    }
    return true;
  }
};

TEST_F(RepairTest, RepairRestoresReplicasWithAntiAffinity) {
  Testbed tb(Opts());
  tb.EnableInvariantChecks();
  auto id_or =
      tb.client().CreateReplicated(4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "survives repair";
  bool wrote = false;
  ASSERT_TRUE(tb.client()
                  .Write(id, 64, msg, sizeof(msg),
                         [&](Status st) {
                           EXPECT_TRUE(st.ok());
                           wrote = true;
                         })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return wrote; }));
  tb.RecordAckedBytes(id, 64, msg, sizeof(msg));

  // Kill the primary's server: every region it hosted fails over and
  // starts a repair job.
  auto vm = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm.ok());
  tb.FailNode(tb.allocator().Find(*vm)->server);

  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 2) &&
           tb.client().PendingRecoveries() == 0;
  }));

  const auto* stats = tb.client().stats(id);
  EXPECT_GE(stats->repairs_started, 1u);
  EXPECT_EQ(stats->repairs_completed, stats->repairs_started);
  // Repair copies through the same verified chunk copier as migration:
  // every chunk of every restored replica is checksummed on arrival.
  const auto region_bytes = tb.client().RegionSize(id);
  ASSERT_TRUE(region_bytes.ok());
  EXPECT_EQ(stats->chunks_verified,
            stats->repairs_completed *
                (*region_bytes / tb.client().options().migration_chunk_bytes));
  EXPECT_EQ(stats->checksum_mismatches, 0u);
  // Anti-affinity (replica never shares a node with its primary) plus
  // acked-bytes survival are swept by the invariant checker.
  EXPECT_GT(tb.invariant_checks(), 0u);
  EXPECT_TRUE(tb.invariant_violations().empty())
      << tb.invariant_violations()[0];
  EXPECT_TRUE(tb.CheckInvariantsNow().empty());
}

class RepairCapacityTest : public RepairTest {
 protected:
  /// A four-server cluster (app node + three) where every server fits
  /// exactly one cache VM (the cheapest menu type is 8 GiB). After a
  /// replicated cache takes two servers, fillers consume the rest, so
  /// repair allocation fails until something frees.
  static TestbedOptions TightOpts() {
    TestbedOptions o;
    o.pods = 1;
    o.racks_per_pod = 1;
    o.servers_per_rack = 4;
    o.memory_per_server = 8 * kGiB;
    o.client.region_bytes = 2 * kMiB;
    return o;
  }

  /// Allocates filler VMs until the cluster is out of memory; returns
  /// them so tests can free a specific one.
  static std::vector<cluster::Vm> FillCluster(Testbed& tb) {
    std::vector<cluster::Vm> fillers;
    for (;;) {
      auto vm = tb.allocator().Allocate(1, 8 * kGiB, false);
      if (!vm.ok()) break;
      fillers.push_back(*vm);
    }
    return fillers;
  }
};

TEST_F(RepairCapacityTest, ParksOnCapacityWaitlistAndResumesAfterFree) {
  Testbed tb(TightOpts());
  auto id_or =
      tb.client().CreateReplicated(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;
  const std::vector<cluster::Vm> fillers = FillCluster(tb);
  ASSERT_FALSE(fillers.empty());

  auto vm = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm.ok());
  const net::ServerId primary_node = tb.allocator().Find(*vm)->server;
  tb.FailNode(primary_node);

  // The repair cannot place a replica anywhere: the old primary's
  // server is dead, the new primary's node is excluded by
  // anti-affinity, and the fillers hold everything else. It must park
  // (bounded backoff + capacity waitlist), not fail or spin.
  tb.sim().RunFor(300 * kMicrosecond);
  EXPECT_FALSE(AllReplicated(tb, id, 1));
  EXPECT_EQ(tb.client().PendingRecoveries(), 1u);
  EXPECT_EQ(tb.client().stats(id)->repairs_started, 1u);
  EXPECT_EQ(tb.client().stats(id)->repairs_completed, 0u);

  // Free a filler on a non-app, non-primary node: the capacity waiter
  // fires and the parked repair completes there.
  const cluster::Vm* victim = nullptr;
  auto vm_after = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm_after.ok());
  const net::ServerId new_primary = tb.allocator().Find(*vm_after)->server;
  for (const auto& f : fillers) {
    if (f.server != tb.app_node() && f.server != new_primary) victim = &f;
  }
  ASSERT_NE(victim, nullptr);
  tb.allocator().Free(victim->id);

  ASSERT_TRUE(RunUntil(tb, [&] {
    return AllReplicated(tb, id, 1) &&
           tb.client().PendingRecoveries() == 0;
  }));
  EXPECT_EQ(tb.client().stats(id)->repairs_completed, 1u);
  EXPECT_TRUE(tb.CheckInvariantsNow().empty());
}

TEST_F(RepairCapacityTest, GivesUpAfterBoundedAttemptsWithoutLeaking) {
  Testbed tb(TightOpts());
  auto id_or =
      tb.client().CreateReplicated(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;
  const std::vector<cluster::Vm> fillers = FillCluster(tb);
  const uint64_t free_before = tb.allocator().UnallocatedMemory();

  auto vm = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(vm.ok());
  const cluster::Vm primary = *tb.allocator().Find(*vm);
  tb.FailNode(primary.server);

  // Nothing ever frees: the repair retries with doubling backoff and
  // gives up after kRepairMaxAttempts, leaving the region degraded
  // but the cache usable and the recovery pipeline drained.
  ASSERT_TRUE(
      RunUntil(tb, [&] { return tb.client().PendingRecoveries() == 0; }));
  EXPECT_FALSE(AllReplicated(tb, id, 1));
  EXPECT_EQ(tb.client().stats(id)->repairs_started, 1u);
  EXPECT_EQ(tb.client().stats(id)->repairs_completed, 0u);
  // Failed attempts must not leak target VMs (the dead primary's
  // memory came back when its server freed it, nothing else moved).
  EXPECT_EQ(tb.allocator().UnallocatedMemory(),
            free_before + primary.memory_bytes);

  // Late capacity does not resurrect the abandoned job (its waiters
  // are one-shot and already spent) — and nothing crashes.
  tb.allocator().Free(fillers.back().id);
  tb.sim().RunFor(5 * kMillisecond);
  EXPECT_EQ(tb.client().PendingRecoveries(), 0u);

  // The degraded cache still serves traffic.
  const char msg[] = "degraded but alive";
  char out[32] = {};
  bool done = false;
  ASSERT_TRUE(tb.client()
                  .Write(id, 0, msg, sizeof(msg),
                         [&](Status st) {
                           EXPECT_TRUE(st.ok());
                           done = true;
                         })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return done; }));
  done = false;
  ASSERT_TRUE(tb.client()
                  .Read(id, 0, out, sizeof(msg),
                        [&](Status st) {
                          EXPECT_TRUE(st.ok());
                          done = true;
                        })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return done; }));
  EXPECT_STREQ(out, msg);
}

}  // namespace
}  // namespace redy
