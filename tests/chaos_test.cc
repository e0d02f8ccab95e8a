// Chaos tests: deterministic fault injection (gray failures, lossy
// links, flaps, NIC stalls) against the client's retry/timeout/
// reconnect machinery. The soak asserts the resilience contract: every
// callback fires, acknowledged data is never corrupted, error rates
// stay bounded while faults are active, and the system fully recovers
// once the schedule drains.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/storm.h"
#include "redy/cache_client.h"
#include "redy/testbed.h"

namespace redy {
namespace {

constexpr uint64_t kRecord = 64;

uint8_t FillByte(uint64_t idx, uint64_t i) {
  return static_cast<uint8_t>(idx * 131 + i * 7 + 13);
}

class ChaosTest : public ::testing::Test {
 protected:
  /// Testbed with the resilience machinery switched on.
  static TestbedOptions ResilientOpts() {
    TestbedOptions o;
    o.pods = 2;
    o.racks_per_pod = 2;
    o.servers_per_rack = 4;
    o.client.region_bytes = 2 * kMiB;
    o.client.max_retries = 6;
    o.client.sub_op_timeout_ns = 200 * kMicrosecond;
    o.client.retry_backoff_max_ns = 200 * kMicrosecond;
    return o;
  }

  /// Testbed with resilience off (surface every fault to the caller).
  static TestbedOptions FragileOpts() {
    TestbedOptions o = ResilientOpts();
    o.client.max_retries = 0;
    o.client.sub_op_timeout_ns = 0;
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

  static net::ServerId NodeOfRegion(Testbed& tb, CacheClient::CacheId id,
                                    uint32_t vregion) {
    auto vm = tb.client().RegionVm(id, vregion);
    EXPECT_TRUE(vm.ok());
    return tb.allocator().Find(*vm)->server;
  }
};

// --- Injector mechanics -----------------------------------------------------

TEST_F(ChaosTest, StallWindowDefersCompletions) {
  Testbed tb(FragileOpts());
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const net::ServerId node = NodeOfRegion(tb, *id_or, 0);

  chaos::FaultInjector::Options copts;
  copts.servers = {node};
  auto* chaos = tb.EnableChaos(copts);
  const sim::SimTime stall_end = tb.sim().Now() + 300 * kMicrosecond;
  chaos->AddStall(node, tb.sim().Now(), 300 * kMicrosecond);

  // A read that normally completes in a few microseconds is held until
  // the stall window closes — the NIC is alive but delivers nothing.
  char buf[64];
  sim::SimTime done_at = 0;
  ASSERT_TRUE(tb.client()
                  .Read(*id_or, 0, buf, sizeof(buf),
                        [&](Status st) {
                          EXPECT_TRUE(st.ok()) << st.ToString();
                          done_at = tb.sim().Now();
                        })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return done_at != 0; }));
  EXPECT_GE(done_at, stall_end);
  EXPECT_GT(chaos->stall_holds(), 0u);
}

TEST_F(ChaosTest, FlapFailsOpsWhenRetriesAreOff) {
  Testbed tb(FragileOpts());
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const net::ServerId node = NodeOfRegion(tb, *id_or, 0);

  auto* chaos = tb.EnableChaos({});
  chaos->AddFlap(tb.app_node(), node, tb.sim().Now(), 200 * kMicrosecond);

  char buf[64] = {7};
  int completed = 0, failed = 0;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(tb.client()
                    .Write(*id_or, i * 64, buf, 64,
                           [&](Status st) {
                             completed++;
                             if (!st.ok()) failed++;
                           })
                    .ok());
  }
  ASSERT_TRUE(RunUntil(tb, [&] { return completed == 8; }));
  EXPECT_EQ(failed, 8) << "a downed link with no retries fails every op";
  EXPECT_GT(chaos->injected_errors(), 0u);
}

TEST_F(ChaosTest, RetriesMaskATransientFlap) {
  Testbed tb(ResilientOpts());
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const net::ServerId node = NodeOfRegion(tb, *id_or, 0);

  auto* chaos = tb.EnableChaos({});
  chaos->AddFlap(tb.app_node(), node, tb.sim().Now(), 100 * kMicrosecond);

  char buf[64] = {9};
  int completed = 0, failed = 0;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(tb.client()
                    .Write(*id_or, i * 64, buf, 64,
                           [&](Status st) {
                             completed++;
                             if (!st.ok()) failed++;
                           })
                    .ok());
  }
  ASSERT_TRUE(RunUntil(tb, [&] { return completed == 8; }));
  EXPECT_EQ(failed, 0) << "backoff outlasts the 100 us flap";
  const auto* stats = tb.client().stats(*id_or);
  EXPECT_GT(stats->retries, 0u);
}

// Chained pointer chases under a link flap (DESIGN.md §15): a flap
// that opens mid-chain aborts the remaining hops with one poisoned
// completion; the retry machinery masks it exactly like a plain read,
// and every chase lands the correct record.
TEST_F(ChaosTest, ChainedReadsSurviveALinkFlap) {
  TestbedOptions o = ResilientOpts();
  o.client.chain_reads = true;
  Testbed tb(o);
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const net::ServerId node = NodeOfRegion(tb, *id_or, 0);

  // Records at 64 KiB, pointer words at 4 KiB.
  std::vector<std::vector<uint8_t>> recs(8, std::vector<uint8_t>(64));
  std::vector<uint64_t> words(8);
  int setup = 0;
  auto wrote = [&](Status st) {
    ASSERT_TRUE(st.ok()) << st.ToString();
    setup++;
  };
  for (int i = 0; i < 8; i++) {
    for (uint64_t j = 0; j < 64; j++) recs[i][j] = FillByte(i, j);
    words[i] = 64 * kKiB + i * 64;
    ASSERT_TRUE(
        tb.client().Write(*id_or, words[i], recs[i].data(), 64, wrote).ok());
    ASSERT_TRUE(tb.client()
                    .Write(*id_or, 4096 + i * 8, &words[i], 8, wrote)
                    .ok());
  }
  ASSERT_TRUE(RunUntil(tb, [&] { return setup == 16; }));

  auto* chaos = tb.EnableChaos({});
  chaos->AddFlap(tb.app_node(), node, tb.sim().Now(), 100 * kMicrosecond);

  std::vector<std::vector<uint8_t>> got(8, std::vector<uint8_t>(64));
  int completed = 0, failed = 0;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(tb.client()
                    .ReadIndirect(*id_or, 4096 + i * 8, got[i].data(), 64,
                                  [&](Status st) {
                                    completed++;
                                    if (!st.ok()) failed++;
                                  })
                    .ok());
  }
  ASSERT_TRUE(RunUntil(tb, [&] { return completed == 8; }));
  EXPECT_EQ(failed, 0) << "backoff outlasts the 100 us flap";
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(got[i], recs[i]) << "chase " << i;
  }
  const auto* stats = tb.client().stats(*id_or);
  EXPECT_EQ(stats->indirect_reads, 8u);
  EXPECT_GT(stats->retries, 0u);
  EXPECT_GT(chaos->injected_errors(), 0u);
}

TEST_F(ChaosTest, DegradedLinkAddsLatency) {
  Testbed tb(FragileOpts());
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const net::ServerId node = NodeOfRegion(tb, *id_or, 0);

  char buf[64];
  // Baseline round trip.
  sim::SimTime t0 = tb.sim().Now(), done = 0;
  ASSERT_TRUE(tb.client()
                  .Read(*id_or, 0, buf, 64,
                        [&](Status) { done = tb.sim().Now(); })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return done != 0; }));
  const sim::SimTime baseline = done - t0;

  constexpr uint64_t kExtra = 20 * kMicrosecond;
  chaos::FaultInjector::Options copts;
  copts.spike_p = 0.0;  // fixed extra only, no random spikes
  auto* chaos = tb.EnableChaos(copts);
  chaos->AddDegrade(tb.app_node(), node, tb.sim().Now(), 1 * kMillisecond,
                    kExtra);

  t0 = tb.sim().Now();
  done = 0;
  ASSERT_TRUE(tb.client()
                  .Read(*id_or, 0, buf, 64,
                        [&](Status) { done = tb.sim().Now(); })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return done != 0; }));
  EXPECT_GE(done - t0, baseline + kExtra - 1);
  EXPECT_GT(chaos->injected_delays(), 0u);
}

// --- Soak -------------------------------------------------------------------

struct SoakCounts {
  uint64_t submitted = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t corrupt = 0;
  uint64_t retries = 0;
  uint64_t timeouts = 0;
  uint64_t reconnects = 0;
  uint64_t injected = 0;

  bool operator==(const SoakCounts& o) const {
    return submitted == o.submitted && ok == o.ok && failed == o.failed &&
           corrupt == o.corrupt && retries == o.retries &&
           timeouts == o.timeouts && reconnects == o.reconnects &&
           injected == o.injected;
  }
};

class ChaosSoakTest : public ChaosTest {
 protected:
  /// Mixed read/write traffic against a cache while a seeded random
  /// fault schedule unfolds, then a clean run after the last fault.
  /// Reads target a pre-populated half of the cache (so any successful
  /// read has exactly one correct value); writes are write-once per
  /// record (so acknowledged writes have exactly one correct read-back).
  static SoakCounts RunSoak(uint64_t seed, const RdmaConfig& cfg) {
    SoakCounts counts;
    Testbed tb(ResilientOpts());
    auto id_or = tb.client().CreateWithConfig(4 * kMiB, cfg, 64);
    EXPECT_TRUE(id_or.ok()) << id_or.status().ToString();
    if (!id_or.ok()) return counts;
    const auto id = *id_or;

    const uint64_t records = 4 * kMiB / kRecord;
    const uint64_t read_base = records / 2;

    // Pre-populate the read half with its pattern.
    {
      std::vector<uint8_t> half((records - read_base) * kRecord);
      for (uint64_t j = 0; j < half.size(); j++) {
        half[j] = FillByte(read_base + j / kRecord, j % kRecord);
      }
      EXPECT_TRUE(
          tb.client().Poke(id, read_base * kRecord, half.data(), half.size())
              .ok());
    }

    // Seeded fault schedule over the cache's nodes.
    chaos::FaultInjector::Options copts;
    copts.seed = seed;
    copts.start = tb.sim().Now();
    copts.horizon = 4 * kMillisecond;
    copts.degrade_windows = 3;
    copts.lossy_windows = 3;
    copts.flap_windows = 2;
    copts.stall_windows = 2;
    copts.min_window_ns = 50 * kMicrosecond;
    copts.max_window_ns = 400 * kMicrosecond;
    const uint32_t nregions =
        static_cast<uint32_t>(4 * kMiB / tb.options().client.region_bytes);
    for (uint32_t r = 0; r < nregions; r++) {
      copts.servers.push_back(NodeOfRegion(tb, id, r));
    }
    auto* chaos = tb.EnableChaos(copts);
    chaos->Arm();

    uint64_t completed = 0;
    uint64_t next_write_idx = 0;
    Rng traffic_rng(seed ^ 0xABCDEF);
    std::vector<std::unique_ptr<std::vector<uint8_t>>> bufs;
    std::unordered_map<uint64_t, bool> write_acked;

    auto pump = [&](int nops) {
      for (int i = 0; i < nops; i++) {
        const bool do_write =
            traffic_rng.Bernoulli(0.5) && next_write_idx < read_base;
        const uint32_t app_thread = static_cast<uint32_t>(i);
        if (do_write) {
          const uint64_t idx = next_write_idx++;
          auto data = std::make_unique<std::vector<uint8_t>>(kRecord);
          for (uint64_t j = 0; j < kRecord; j++) {
            (*data)[j] = FillByte(idx, j);
          }
          counts.submitted++;
          EXPECT_TRUE(tb.client()
                          .Write(id, idx * kRecord, data->data(), kRecord,
                                 [&counts, &completed, &write_acked,
                                  idx](Status st) {
                                   completed++;
                                   if (st.ok()) {
                                     counts.ok++;
                                     write_acked[idx] = true;
                                   } else {
                                     counts.failed++;
                                   }
                                 },
                                 app_thread)
                          .ok());
          bufs.push_back(std::move(data));
        } else {
          const uint64_t idx =
              read_base + traffic_rng.Uniform(records - read_base);
          auto dst = std::make_unique<std::vector<uint8_t>>(kRecord);
          auto* p = dst.get();
          counts.submitted++;
          EXPECT_TRUE(tb.client()
                          .Read(id, idx * kRecord, p->data(), kRecord,
                                [&counts, &completed, idx, p](Status st) {
                                  completed++;
                                  if (!st.ok()) {
                                    counts.failed++;
                                    return;
                                  }
                                  counts.ok++;
                                  for (uint64_t j = 0; j < kRecord; j++) {
                                    if ((*p)[j] != FillByte(idx, j)) {
                                      counts.corrupt++;
                                      break;
                                    }
                                  }
                                },
                                app_thread)
                          .ok());
          bufs.push_back(std::move(dst));
        }
      }
    };

    // Keep traffic flowing until the whole fault schedule has played
    // out. Every burst must drain: no op may hang forever.
    while (tb.sim().Now() <= chaos->last_fault_end()) {
      pump(64);
      EXPECT_TRUE(
          RunUntil(tb, [&] { return completed == counts.submitted; }))
          << "ops hung under faults at t=" << tb.sim().Now();
      tb.sim().RunFor(20 * kMicrosecond);
    }

    // Full recovery: past the last fault, fresh traffic is clean.
    tb.sim().RunFor(1 * kMillisecond);
    const uint64_t failed_during_faults = counts.failed;
    pump(128);
    EXPECT_TRUE(RunUntil(tb, [&] { return completed == counts.submitted; }));
    EXPECT_EQ(counts.failed, failed_during_faults)
        << "no failures after the fault schedule drained";

    // Acknowledged writes must read back exactly (write-once records).
    std::vector<uint8_t> readback(kRecord);
    for (const auto& [idx, acked] : write_acked) {
      EXPECT_TRUE(
          tb.client().Peek(id, idx * kRecord, readback.data(), kRecord).ok());
      for (uint64_t j = 0; j < kRecord; j++) {
        if (readback[j] != FillByte(idx, j)) {
          counts.corrupt++;
          break;
        }
      }
    }

    const auto* stats = tb.client().stats(id);
    counts.retries = stats->retries;
    counts.timeouts = stats->timeouts;
    counts.reconnects = stats->reconnects;
    counts.injected = chaos->injected_errors() + chaos->injected_delays() +
                      chaos->injected_spikes() + chaos->stall_holds();

    EXPECT_EQ(counts.corrupt, 0u) << "acknowledged data corrupted";
    EXPECT_GT(counts.injected, 0u) << "fault schedule never hit traffic";
    // Bounded failure rate: retries absorb most transient faults.
    EXPECT_LE(counts.failed, counts.submitted * 3 / 10)
        << counts.failed << " of " << counts.submitted << " ops failed";
    return counts;
  }
};

TEST_F(ChaosSoakTest, OneSidedSurvivesSeededSchedules) {
  for (uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    RunSoak(seed, RdmaConfig{2, 0, 1, 8});
  }
}

TEST_F(ChaosSoakTest, TwoSidedSurvivesSeededSchedules) {
  for (uint64_t seed : {5u, 19u, 31u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    RunSoak(seed, RdmaConfig{2, 1, 8, 4});
  }
}

TEST_F(ChaosSoakTest, SameSeedSameOutcome) {
  const SoakCounts a = RunSoak(7, RdmaConfig{2, 0, 1, 8});
  const SoakCounts b = RunSoak(7, RdmaConfig{2, 0, 1, 8});
  EXPECT_TRUE(a == b) << "fault injection must be bit-for-bit reproducible";
}

// --- Reclamation storm under gray faults ------------------------------------

struct StormCounts {
  uint64_t write_ok = 0;
  uint64_t write_failed = 0;
  uint64_t read_ok = 0;
  uint64_t read_failed = 0;
  uint64_t reclaims = 0;
  uint64_t events = 0;
  uint64_t regions = 0;
  uint64_t regions_lost = 0;
  uint64_t bytes = 0;
  uint64_t bytes_lost = 0;
  uint64_t resumes = 0;
  uint64_t retargets = 0;
  uint64_t repairs_started = 0;
  uint64_t repairs_completed = 0;
  uint64_t checks = 0;
  uint64_t violations = 0;

  bool operator==(const StormCounts& o) const {
    return write_ok == o.write_ok && write_failed == o.write_failed &&
           read_ok == o.read_ok && read_failed == o.read_failed &&
           reclaims == o.reclaims && events == o.events &&
           regions == o.regions && regions_lost == o.regions_lost &&
           bytes == o.bytes && bytes_lost == o.bytes_lost &&
           resumes == o.resumes && retargets == o.retargets &&
           repairs_started == o.repairs_started &&
           repairs_completed == o.repairs_completed && checks == o.checks &&
           violations == o.violations;
  }
};

class StormSoakTest : public ChaosTest {
 protected:
  /// Four spot VMs reclaimed in overlapping 3 ms windows — three
  /// single-region VMs of an unreplicated cache plus the primary of a
  /// replicated region — while a seeded gray-fault schedule runs and
  /// traffic keeps flowing. At 8 Gb/s one 2 MiB region copy takes
  /// ~2.1 ms, so the EDF scheduler can save the earliest deadlines in
  /// full but the tail of the storm necessarily loses data; the test
  /// asserts that loss is accounted byte-exactly, replicated regions
  /// lose nothing, the invariant checker stays clean, and the whole
  /// run is reproducible from the seed.
  static StormCounts RunStorm(uint64_t seed) {
    StormCounts c;
    TestbedOptions o = ResilientOpts();
    o.client.max_regions_per_vm = 1;  // one region per VM: VM loss == region
    o.reclaim_notice = 3 * kMillisecond;
    Testbed tb(o);
    tb.EnableInvariantChecks();
    const uint64_t kRegion = o.client.region_bytes;

    auto plain_or = tb.client().CreateWithConfig(
        8 * kMiB, RdmaConfig{2, 0, 1, 8}, 64, /*spot=*/true);
    auto repl_or = tb.client().CreateReplicated(
        4 * kMiB, RdmaConfig{1, 0, 1, 8}, 64, /*spot=*/true);
    EXPECT_TRUE(plain_or.ok()) << plain_or.status().ToString();
    EXPECT_TRUE(repl_or.ok()) << repl_or.status().ToString();
    if (!plain_or.ok() || !repl_or.ok()) return c;
    const auto plain = *plain_or;
    const auto repl = *repl_or;

    uint64_t submitted = 0, completed = 0;
    std::vector<std::unique_ptr<std::vector<uint8_t>>> bufs;
    // Write-once records; acked bytes become invariant ground truth.
    auto write_rec = [&](CacheClient::CacheId id, uint64_t addr,
                         uint64_t tag) {
      auto data = std::make_unique<std::vector<uint8_t>>(kRecord);
      for (uint64_t j = 0; j < kRecord; j++) {
        (*data)[j] = static_cast<uint8_t>(tag * 31 + j * 7 + 5);
      }
      auto* p = data.get();
      submitted++;
      EXPECT_TRUE(tb.client()
                      .Write(id, addr, p->data(), kRecord,
                             [&c, &completed, &tb, id, addr, p](Status st) {
                               completed++;
                               if (st.ok()) {
                                 c.write_ok++;
                                 tb.RecordAckedBytes(id, addr, p->data(),
                                                     kRecord);
                               } else {
                                 c.write_failed++;
                               }
                             })
                      .ok());
      bufs.push_back(std::move(data));
    };
    auto read_rec = [&](CacheClient::CacheId id, uint64_t addr) {
      auto dst = std::make_unique<std::vector<uint8_t>>(kRecord);
      submitted++;
      EXPECT_TRUE(tb.client()
                      .Read(id, addr, dst->data(), kRecord,
                            [&c, &completed](Status st) {
                              completed++;
                              st.ok() ? c.read_ok++ : c.read_failed++;
                            })
                      .ok());
      bufs.push_back(std::move(dst));
    };
    auto drain = [&] {
      EXPECT_TRUE(RunUntil(tb, [&] { return completed == submitted; }))
          << "ops hung during the storm at t=" << tb.sim().Now();
    };

    // Pre-populate 32 records per region in both caches.
    for (uint32_t r = 0; r < 4; r++) {
      for (uint64_t k = 0; k < 32; k++) {
        write_rec(plain, r * kRegion + k * kRecord, r * 100 + k);
      }
    }
    for (uint32_t r = 0; r < 2; r++) {
      for (uint64_t k = 0; k < 32; k++) {
        write_rec(repl, r * kRegion + k * kRecord, 7000 + r * 100 + k);
      }
    }
    drain();

    // Victims: three of the plain cache's four VMs plus the primary of
    // the replicated region 0 — all reclaimed in overlapping windows.
    std::vector<cluster::VmId> victims;
    std::vector<net::ServerId> victim_nodes;
    for (uint32_t r = 0; r < 3; r++) {
      auto vm = tb.client().RegionVm(plain, r);
      EXPECT_TRUE(vm.ok());
      victims.push_back(*vm);
      victim_nodes.push_back(tb.allocator().Find(*vm)->server);
    }
    {
      auto vm = tb.client().RegionVm(repl, 0);
      EXPECT_TRUE(vm.ok());
      victims.push_back(*vm);
      victim_nodes.push_back(tb.allocator().Find(*vm)->server);
    }

    // Gray faults racing the storm: seeded degrade/lossy/flap windows
    // on the client links plus NIC stalls on the victims themselves.
    chaos::FaultInjector::Options copts;
    copts.seed = seed;
    copts.start = tb.sim().Now();
    copts.horizon = 6 * kMillisecond;
    copts.degrade_windows = 2;
    copts.lossy_windows = 2;
    copts.flap_windows = 1;
    copts.stall_windows = 2;
    copts.min_window_ns = 50 * kMicrosecond;
    copts.max_window_ns = 300 * kMicrosecond;
    for (uint32_t r = 0; r < 4; r++) {
      auto vm = tb.client().RegionVm(plain, r);
      EXPECT_TRUE(vm.ok());
      copts.servers.push_back(tb.allocator().Find(*vm)->server);
    }
    auto* chaos = tb.EnableChaos(copts);
    chaos->Arm();
    // One deterministic stall on the earliest victim's NIC mid-copy.
    chaos->AddStall(victim_nodes[0], tb.sim().Now() + 500 * kMicrosecond,
                    200 * kMicrosecond);

    chaos::ReclamationStorm::Options sopts;
    sopts.seed = seed;
    sopts.start = tb.sim().Now() + 200 * kMicrosecond;
    sopts.stagger = 1 * kMillisecond;
    sopts.victims = victims;
    chaos::ReclamationStorm storm(&tb.sim(), &tb.allocator(), sopts);
    storm.Arm();

    // Keep traffic flowing past the last fault, the last force-free,
    // and until every recovery (migrations and repairs) drains.
    uint64_t pw = 0, rw = 0;
    Rng traffic_rng(seed ^ 0xF00D);
    auto horizon = [&] {
      sim::SimTime h = chaos->last_fault_end();
      if (storm.last_deadline() > h) h = storm.last_deadline();
      return h;
    };
    while (tb.sim().Now() <= horizon() ||
           tb.client().PendingRecoveries() > 0) {
      for (int k = 0; k < 8; k++, pw++) {
        write_rec(plain, (pw % 4) * kRegion + (32 + pw / 4) * kRecord,
                  1000 + pw);
      }
      for (int k = 0; k < 4; k++, rw++) {
        write_rec(repl, (rw % 2) * kRegion + (32 + rw / 2) * kRecord,
                  9000 + rw);
      }
      for (int k = 0; k < 4; k++) {
        const uint64_t idx = traffic_rng.Uniform(4 * 32);
        read_rec(plain, (idx % 4) * kRegion + (idx / 4) * kRecord);
      }
      drain();
      tb.sim().RunFor(50 * kMicrosecond);
    }

    // Full recovery: fresh traffic past the storm is clean.
    tb.sim().RunFor(1 * kMillisecond);
    const uint64_t failed_before = c.write_failed + c.read_failed;
    for (int k = 0; k < 16; k++, pw++) {
      write_rec(plain, (pw % 4) * kRegion + (32 + pw / 4) * kRecord,
                1000 + pw);
    }
    drain();
    EXPECT_EQ(c.write_failed + c.read_failed, failed_before)
        << "no failures after the storm drained";

    // Exact loss accounting: every migration event balances to the
    // byte, losses are attributed to named regions, and the per-cache
    // counters agree with the event log.
    auto rb_or = tb.client().RegionSize(plain);
    EXPECT_TRUE(rb_or.ok());
    for (const auto& ev : tb.client().migrations()) {
      EXPECT_EQ(ev.cache, plain)
          << "replicated regions fail over; they never migrate here";
      c.events++;
      c.regions += ev.regions;
      c.regions_lost += ev.regions_lost;
      c.bytes += ev.bytes;
      c.bytes_lost += ev.bytes_lost;
      c.resumes += ev.resumes;
      c.retargets += ev.retargets;
      EXPECT_EQ(ev.data_lost, ev.regions_lost > 0);
      EXPECT_EQ(ev.lost_vregions.size(), ev.regions_lost);
      EXPECT_EQ(ev.bytes + ev.bytes_lost,
                static_cast<uint64_t>(ev.regions) * *rb_or)
          << "migrated + lost bytes must cover the moved regions exactly";
    }
    EXPECT_EQ(c.events, 3u);
    // The storm outruns the notice window for the tail of the EDF
    // queue (three serialized 2.1 ms copies against ~3-4 ms deadlines):
    // some region is lost, and some bytes are saved.
    EXPECT_GT(c.regions_lost, 0u);
    EXPECT_GT(c.bytes, 0u);
    const auto* ps = tb.client().stats(plain);
    EXPECT_EQ(ps->storm_regions_lost, c.regions_lost);
    EXPECT_EQ(ps->migration_resumes, c.resumes);
    EXPECT_EQ(ps->migration_retargets, c.retargets);

    // The replicated cache: instant failover, zero loss, replication
    // factor restored by the background repair.
    const auto* rs = tb.client().stats(repl);
    c.repairs_started = rs->repairs_started;
    c.repairs_completed = rs->repairs_completed;
    EXPECT_GE(c.repairs_started, 1u);
    EXPECT_EQ(c.repairs_completed, c.repairs_started);
    for (uint32_t r = 0; r < 2; r++) {
      auto rep = tb.client().RegionReplicated(repl, r);
      EXPECT_TRUE(rep.ok() && *rep) << "replica not restored for region " << r;
    }

    c.reclaims = storm.reclaims_issued();
    EXPECT_EQ(c.reclaims, victims.size());
    EXPECT_EQ(tb.client().PendingRecoveries(), 0u);

    // Invariant checker: swept after every recovery plus a final pass,
    // always clean (acked bytes on surviving regions never mutate, no
    // region maps to a dead VM, anti-affinity holds).
    EXPECT_TRUE(tb.CheckInvariantsNow().empty());
    c.checks = tb.invariant_checks();
    c.violations = tb.invariant_violations().size();
    EXPECT_GT(c.checks, 1u);
    EXPECT_EQ(c.violations, 0u) << tb.invariant_violations()[0];
    return c;
  }
};

TEST_F(StormSoakTest, OverlappingReclamationsUnderGrayFaults) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    RunStorm(seed);
  }
}

TEST_F(StormSoakTest, SameSeedSameStorm) {
  const StormCounts a = RunStorm(13);
  const StormCounts b = RunStorm(13);
  EXPECT_TRUE(a == b) << "storm recovery must be bit-for-bit reproducible";
}

}  // namespace
}  // namespace redy
