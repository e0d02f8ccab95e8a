#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "redy/cache_client.h"
#include "redy/testbed.h"

namespace redy {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  static TestbedOptions Opts(bool unpaused_reads = true,
                             bool per_region_writes = true) {
    TestbedOptions o;
    o.pods = 2;
    o.racks_per_pod = 2;
    o.servers_per_rack = 4;
    o.client.region_bytes = 2 * kMiB;
    o.client.unpaused_reads = unpaused_reads;
    o.client.pause_per_region_writes = per_region_writes;
    return o;
  }

  explicit MigrationTest() : tb_(Opts()) {}

  template <typename Pred>
  bool RunUntil(Testbed& tb, Pred pred, int max_steps = 5'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) return true;
      if (!tb.sim().Step()) return pred();
    }
    return pred();
  }

  Testbed tb_;
};

TEST_F(MigrationTest, MigrationPreservesDataAndRetargetsRegions) {
  auto id_or = tb_.client().CreateWithConfig(
      6 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;

  // Fill the cache with a recognizable pattern (backdoor: setup).
  std::vector<uint8_t> data(6 * kMiB);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(SplitMix64(i) & 0xff);
  }
  ASSERT_TRUE(tb_.client().Poke(id, 0, data.data(), data.size()).ok());

  auto victim_or = tb_.client().RegionVm(id, 0);
  ASSERT_TRUE(victim_or.ok());
  const cluster::VmId victim = *victim_or;

  bool done = false;
  CacheClient::MigrationEvent event;
  ASSERT_TRUE(tb_.client()
                  .MigrateVm(id, victim, tb_.sim().Now() + 30 * kSecond,
                             [&](const CacheClient::MigrationEvent& e) {
                               event = e;
                               done = true;
                             })
                  .ok());
  ASSERT_TRUE(RunUntil(tb_, [&] { return done; }));

  EXPECT_FALSE(event.data_lost);
  EXPECT_GT(event.regions, 0u);
  EXPECT_GT(event.finished, event.started);
  // Every region moved off the victim.
  for (uint32_t r = 0; r < 3; r++) {
    auto vm = tb_.client().RegionVm(id, r);
    ASSERT_TRUE(vm.ok());
    EXPECT_NE(*vm, victim);
  }
  // The victim VM was released back to the allocator.
  EXPECT_EQ(tb_.allocator().Find(victim), nullptr);

  // All data survived and is readable through the normal path.
  std::vector<uint8_t> out(data.size(), 0);
  bool read = false;
  ASSERT_TRUE(tb_.client()
                  .Read(id, 0, out.data(), out.size(),
                        [&](Status st) {
                          EXPECT_TRUE(st.ok()) << st.ToString();
                          read = true;
                        })
                  .ok());
  ASSERT_TRUE(RunUntil(tb_, [&] { return read; }));
  EXPECT_EQ(out, data);

  // Migration time is recorded (Section 7.4 reports ~1s per GB on the
  // paper's testbed; our simulated fabric transfers faster — shape,
  // not absolute, is what matters).
  ASSERT_EQ(tb_.client().migrations().size(), 1u);
  EXPECT_EQ(tb_.client().migrations()[0].bytes, 6 * kMiB);
  // Every chunk of every moved region was checksummed on arrival.
  const auto region_bytes = tb_.client().RegionSize(id);
  ASSERT_TRUE(region_bytes.ok());
  const auto* stats = tb_.client().stats(id);
  EXPECT_EQ(stats->chunks_verified,
            event.regions *
                (*region_bytes / tb_.client().options().migration_chunk_bytes));
  EXPECT_EQ(stats->checksum_mismatches, 0u);
}

TEST_F(MigrationTest, ReadsKeepFlowingDuringMigration) {
  auto id_or = tb_.client().CreateWithConfig(
      4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;
  const char msg[] = "unpaused";
  ASSERT_TRUE(tb_.client().Poke(id, 100, msg, sizeof(msg)).ok());

  auto victim = tb_.client().RegionVm(id, 0);
  ASSERT_TRUE(victim.ok());
  bool done = false;
  ASSERT_TRUE(tb_.client()
                  .MigrateVm(id, *victim, tb_.sim().Now() + 30 * kSecond,
                             [&](const CacheClient::MigrationEvent&) {
                               done = true;
                             })
                  .ok());
  // Immediately issue a read; with unpaused reads it completes even
  // though migration is in flight.
  char out[16] = {};
  bool read = false;
  ASSERT_TRUE(tb_.client()
                  .Read(id, 100, out, sizeof(msg),
                        [&](Status st) {
                          EXPECT_TRUE(st.ok());
                          read = true;
                        })
                  .ok());
  ASSERT_TRUE(RunUntil(tb_, [&] { return read; }));
  EXPECT_FALSE(done) << "read should complete before migration finishes";
  EXPECT_STREQ(out, msg);
  ASSERT_TRUE(RunUntil(tb_, [&] { return done; }));
}

TEST_F(MigrationTest, WritesParkDuringMigrationAndReplayAfter) {
  auto id_or = tb_.client().CreateWithConfig(
      4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;

  auto victim = tb_.client().RegionVm(id, 0);
  ASSERT_TRUE(victim.ok());
  bool done = false;
  ASSERT_TRUE(tb_.client()
                  .MigrateVm(id, *victim, tb_.sim().Now() + 30 * kSecond,
                             [&](const CacheClient::MigrationEvent&) {
                               done = true;
                             })
                  .ok());
  const char msg[] = "parked write";
  bool wrote = false;
  ASSERT_TRUE(tb_.client()
                  .Write(id, 4096, msg, sizeof(msg),
                         [&](Status st) {
                           EXPECT_TRUE(st.ok()) << st.ToString();
                           wrote = true;
                         })
                  .ok());
  ASSERT_TRUE(RunUntil(tb_, [&] { return done && wrote; }));
  EXPECT_GT(tb_.client().stats(id)->parked_ops, 0u);

  // The write landed on the *new* placement.
  char out[16] = {};
  ASSERT_TRUE(tb_.client().Peek(id, 4096, out, sizeof(msg)).ok());
  EXPECT_STREQ(out, msg);
}

TEST_F(MigrationTest, SpotReclaimTriggersAutoMigration) {
  auto id_or = tb_.client().CreateWithConfig(
      4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64, /*spot=*/true);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;
  const char msg[] = "spot data";
  ASSERT_TRUE(tb_.client().Poke(id, 0, msg, sizeof(msg)).ok());

  auto victim = tb_.client().RegionVm(id, 0);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(tb_.allocator().Reclaim(*victim).ok());

  // The loss notice arrives synchronously; migration runs in simulated
  // time and must complete well before the 30 s deadline.
  ASSERT_TRUE(RunUntil(tb_, [&] {
    return !tb_.client().migrations().empty();
  }));
  const auto& event = tb_.client().migrations()[0];
  EXPECT_FALSE(event.data_lost);
  EXPECT_LT(event.finished, event.started + 30 * kSecond);

  auto vm_after = tb_.client().RegionVm(id, 0);
  ASSERT_TRUE(vm_after.ok());
  EXPECT_NE(*vm_after, *victim);

  // Data survived the reclamation.
  char out[16] = {};
  bool read = false;
  ASSERT_TRUE(tb_.client()
                  .Read(id, 0, out, sizeof(msg),
                        [&](Status st) {
                          EXPECT_TRUE(st.ok());
                          read = true;
                        })
                  .ok());
  ASSERT_TRUE(RunUntil(tb_, [&] { return read; }));
  EXPECT_STREQ(out, msg);
}

TEST_F(MigrationTest, NodeFailureRecoversWithDataLoss) {
  auto id_or = tb_.client().CreateWithConfig(
      4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;
  auto victim_vm = tb_.client().RegionVm(id, 0);
  ASSERT_TRUE(victim_vm.ok());
  const auto* vm = tb_.allocator().Find(*victim_vm);
  ASSERT_NE(vm, nullptr);
  const net::ServerId dead_node = vm->server;

  tb_.FailNode(dead_node);
  ASSERT_TRUE(RunUntil(tb_, [&] {
    return !tb_.client().migrations().empty();
  }));
  const auto& event = tb_.client().migrations()[0];
  // A crash gives no grace period: the copy fails and the replacement
  // regions come up empty (the application repopulates a cache).
  EXPECT_TRUE(event.data_lost);

  // The cache remains usable on the new VM.
  auto vm_after = tb_.client().RegionVm(id, 0);
  ASSERT_TRUE(vm_after.ok());
  const auto* nvm = tb_.allocator().Find(*vm_after);
  ASSERT_NE(nvm, nullptr);
  EXPECT_NE(nvm->server, dead_node);

  const char msg[] = "fresh start";
  bool wrote = false;
  ASSERT_TRUE(tb_.client()
                  .Write(id, 0, msg, sizeof(msg),
                         [&](Status st) {
                           EXPECT_TRUE(st.ok()) << st.ToString();
                           wrote = true;
                         })
                  .ok());
  ASSERT_TRUE(RunUntil(tb_, [&] { return wrote; }));
}

TEST_F(MigrationTest, NaiveModePausesReads) {
  Testbed tb(Opts(/*unpaused_reads=*/false, /*per_region_writes=*/false));
  auto id_or =
      tb.client().CreateWithConfig(4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;
  const char msg[] = "paused read";
  ASSERT_TRUE(tb.client().Poke(id, 0, msg, sizeof(msg)).ok());

  auto victim = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(victim.ok());
  bool done = false;
  ASSERT_TRUE(tb.client()
                  .MigrateVm(id, *victim, tb.sim().Now() + 30 * kSecond,
                             [&](const CacheClient::MigrationEvent&) {
                               done = true;
                             })
                  .ok());
  char out[16] = {};
  bool read = false;
  ASSERT_TRUE(tb.client()
                  .Read(id, 0, out, sizeof(msg),
                        [&](Status st) {
                          EXPECT_TRUE(st.ok());
                          read = true;
                        })
                  .ok());
  // Drive until migration completes; the read must still be parked
  // before that and complete after.
  ASSERT_TRUE(RunUntil(tb, [&] { return done; }));
  ASSERT_TRUE(RunUntil(tb, [&] { return read; }));
  EXPECT_STREQ(out, msg);
  EXPECT_GT(tb.client().stats(id)->parked_ops, 0u);
}

}  // namespace
}  // namespace redy
