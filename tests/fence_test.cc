// Fencing soak: epoch-fenced remote access under reclamation storms
// and gray faults. The contract under test is the strong one from
// DESIGN.md §7 — with fencing and end-to-end checksums on, *no
// acknowledged byte is ever corrupted*, across a whole seed matrix,
// and a run is byte-identically reproducible from its seed down to
// the telemetry snapshot.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/buggify.h"
#include "chaos/fault_injector.h"
#include "chaos/storm.h"
#include "redy/cache_client.h"
#include "redy/testbed.h"

namespace redy {
namespace {

constexpr uint64_t kRecord = 64;
constexpr uint64_t kSlab = 32 * kKiB;

/// Deterministic, address-keyed payload so the final readback can
/// recompute expectations without storing every buffer.
uint8_t PatternByte(uint64_t addr, uint64_t i) {
  return static_cast<uint8_t>((addr >> 6) * 131 + addr + i * 7 + 13);
}

struct SoakOutcome {
  uint64_t write_ok = 0;
  uint64_t write_failed = 0;
  uint64_t read_ok = 0;
  uint64_t read_failed = 0;
  uint64_t acked_records = 0;
  uint64_t corrupt_records = 0;
  uint64_t invariant_violations = 0;
  uint64_t checksum_mismatches = 0;
  uint64_t fence_revocations = 0;
  uint64_t lease_renewals = 0;
  sim::SimTime end_time = 0;
  /// Full metrics registry snapshot — the determinism check compares
  /// two same-seed runs byte for byte.
  std::string telemetry_json;

  bool operator==(const SoakOutcome& o) const {
    return write_ok == o.write_ok && write_failed == o.write_failed &&
           read_ok == o.read_ok && read_failed == o.read_failed &&
           acked_records == o.acked_records &&
           corrupt_records == o.corrupt_records &&
           invariant_violations == o.invariant_violations &&
           checksum_mismatches == o.checksum_mismatches &&
           fence_revocations == o.fence_revocations &&
           lease_renewals == o.lease_renewals && end_time == o.end_time &&
           telemetry_json == o.telemetry_json;
  }
};

class FenceSoakTest : public ::testing::Test {
 protected:
  template <typename Pred>
  static bool RunUntil(Testbed& tb, Pred pred, int max_steps = 30'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) return true;
      if (!tb.sim().Step()) return pred();
    }
    return pred();
  }

  /// One fenced storm soak: a four-region two-sided cache on spot VMs,
  /// three of the four VMs reclaimed in overlapping windows while a
  /// seeded gray-fault schedule (degraded links, loss, flaps, NIC
  /// stalls) runs and mixed one-sided/two-sided traffic keeps flowing.
  /// Regions are small enough that every migration beats its deadline,
  /// so the acked-bytes ground truth must survive in full.
  static SoakOutcome RunFenceSoak(uint64_t seed) {
    SoakOutcome out;
    TestbedOptions o;
    o.pods = 2;
    o.racks_per_pod = 2;
    o.servers_per_rack = 4;
    o.client.region_bytes = 256 * kKiB;
    o.client.max_regions_per_vm = 1;  // VM reclaim == region migration
    o.client.migration_chunk_bytes = 64 * kKiB;
    o.client.max_retries = 6;
    o.client.sub_op_timeout_ns = 200 * kMicrosecond;
    o.client.retry_backoff_max_ns = 200 * kMicrosecond;
    // epoch_fencing: default (on).
    o.reclaim_notice = 4 * kMillisecond;
    Testbed tb(o);
    tb.EnableInvariantChecks();
    const uint64_t kRegion = o.client.region_bytes;

    // Two-sided threads (s=1) so the lease/epoch-echo path is on the
    // record data path; slab writes exceed the inline cutoff and go
    // one-sided through NIC epoch checks.
    auto id_or = tb.client().CreateWithConfig(
        4 * kRegion, RdmaConfig{/*c=*/1, /*s=*/1, /*b=*/8, /*q=*/4},
        /*record_bytes=*/64, /*spot=*/true);
    EXPECT_TRUE(id_or.ok()) << id_or.status().ToString();
    if (!id_or.ok()) return out;
    const auto id = *id_or;

    uint64_t submitted = 0, completed = 0;
    std::vector<std::unique_ptr<std::vector<uint8_t>>> bufs;
    // addr -> len of every acknowledged (write-once) record/slab.
    std::map<uint64_t, uint64_t> acked;
    auto write_at = [&](uint64_t addr, uint64_t len) {
      auto data = std::make_unique<std::vector<uint8_t>>(len);
      for (uint64_t j = 0; j < len; j++) (*data)[j] = PatternByte(addr, j);
      auto* p = data.get();
      submitted++;
      EXPECT_TRUE(tb.client()
                      .Write(id, addr, p->data(), len,
                             [&, addr, len, p](Status st) {
                               completed++;
                               if (st.ok()) {
                                 out.write_ok++;
                                 acked[addr] = len;
                                 tb.RecordAckedBytes(id, addr, p->data(), len);
                               } else {
                                 out.write_failed++;
                               }
                             })
                      .ok());
      bufs.push_back(std::move(data));
    };
    auto read_at = [&](uint64_t addr, uint64_t len) {
      auto dst = std::make_unique<std::vector<uint8_t>>(len);
      submitted++;
      EXPECT_TRUE(tb.client()
                      .Read(id, addr, dst->data(), len,
                            [&](Status st) {
                              completed++;
                              st.ok() ? out.read_ok++ : out.read_failed++;
                            })
                      .ok());
      bufs.push_back(std::move(dst));
    };
    auto drain = [&] {
      EXPECT_TRUE(RunUntil(tb, [&] { return completed == submitted; }))
          << "ops hung during the fence soak at t=" << tb.sim().Now();
    };

    // Pre-populate: 32 two-sided records in the lower half of each
    // region, two one-sided slabs in the upper half.
    for (uint32_t r = 0; r < 4; r++) {
      for (uint64_t k = 0; k < 32; k++) {
        write_at(r * kRegion + k * kRecord, kRecord);
      }
      for (uint64_t s = 0; s < 2; s++) {
        write_at(r * kRegion + 128 * kKiB + s * kSlab, kSlab);
      }
    }
    drain();

    // Victims: three of the four single-region VMs.
    std::vector<cluster::VmId> victims;
    for (uint32_t r = 0; r < 3; r++) {
      auto vm = tb.client().RegionVm(id, r);
      EXPECT_TRUE(vm.ok());
      victims.push_back(*vm);
    }

    // Seeded gray faults on every region's server, racing the storm.
    chaos::FaultInjector::Options copts;
    copts.seed = seed;
    copts.start = tb.sim().Now();
    copts.horizon = 5 * kMillisecond;
    copts.degrade_windows = 2;
    copts.lossy_windows = 2;
    copts.flap_windows = 1;
    copts.stall_windows = 2;
    copts.min_window_ns = 50 * kMicrosecond;
    copts.max_window_ns = 300 * kMicrosecond;
    for (uint32_t r = 0; r < 4; r++) {
      auto vm = tb.client().RegionVm(id, r);
      EXPECT_TRUE(vm.ok());
      copts.servers.push_back(tb.allocator().Find(*vm)->server);
    }
    auto* chaos = tb.EnableChaos(copts);
    chaos->Arm();

    chaos::ReclamationStorm::Options sopts;
    sopts.seed = seed;
    sopts.start = tb.sim().Now() + 200 * kMicrosecond;
    sopts.stagger = 1 * kMillisecond;
    sopts.victims = victims;
    chaos::ReclamationStorm storm(&tb.sim(), &tb.allocator(), sopts);
    storm.Arm();

    // Traffic through the whole storm: fresh write-once records and
    // slabs, plus reads of already-acked addresses.
    uint64_t w = 0, sl = 0;
    auto horizon = [&] {
      sim::SimTime h = chaos->last_fault_end();
      if (storm.last_deadline() > h) h = storm.last_deadline();
      return h;
    };
    while (tb.sim().Now() <= horizon() ||
           tb.client().PendingRecoveries() > 0) {
      for (int k = 0; k < 8; k++, w++) {
        write_at((w % 4) * kRegion + (32 + w / 4) * kRecord, kRecord);
      }
      if (sl < 8) {
        write_at((sl % 4) * kRegion + 192 * kKiB + (sl / 4) * kSlab, kSlab);
        sl++;
      }
      for (int k = 0; k < 4; k++) {
        const uint64_t idx = (seed * 2654435761u + w * 40503u + k) % (4 * 32);
        read_at((idx % 4) * kRegion + (idx / 4) * kRecord, kRecord);
      }
      drain();
      tb.sim().RunFor(50 * kMicrosecond);
    }
    tb.sim().RunFor(1 * kMillisecond);
    drain();

    // Oracle: every acknowledged byte reads back exactly, through the
    // normal data path, against the post-storm placements.
    for (const auto& [addr, len] : acked) {
      std::vector<uint8_t> got(len);
      Status rs;
      bool done = false;
      EXPECT_TRUE(tb.client()
                      .Read(id, addr, got.data(), len,
                            [&](Status st) {
                              rs = st;
                              done = true;
                            })
                      .ok());
      RunUntil(tb, [&] { return done; });
      out.acked_records++;
      bool bad = !done || !rs.ok();
      if (!bad) {
        for (uint64_t j = 0; j < len && !bad; j++) {
          bad = got[j] != PatternByte(addr, j);
        }
      }
      if (bad) out.corrupt_records++;
    }

    const auto now_violations = tb.CheckInvariantsNow();
    out.invariant_violations =
        tb.invariant_violations().size() + now_violations.size();
    const auto* st = tb.client().stats(id);
    out.checksum_mismatches = st->checksum_mismatches;
    out.fence_revocations = st->fence_revocations;
    out.lease_renewals = st->lease_renewals;
    out.end_time = tb.sim().Now();
    out.telemetry_json = tb.telemetry().metrics().ToJson();
    return out;
  }
};

// Acceptance gate: >= 20 seeds of reclamation storms under gray
// faults, fencing and checksums on, zero corruption of acknowledged
// bytes and zero end-to-end checksum mismatches in every run.
TEST_F(FenceSoakTest, TwentySeedStormSoakZeroAckedCorruption) {
  for (uint64_t seed = 1; seed <= 20; seed++) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SoakOutcome out = RunFenceSoak(seed);
    EXPECT_GT(out.acked_records, 0u);
    EXPECT_EQ(out.corrupt_records, 0u);
    EXPECT_EQ(out.checksum_mismatches, 0u);
    EXPECT_EQ(out.invariant_violations, 0u);
    // The storm migrated regions with fencing on: each commit revoked
    // the old placement's epoch.
    EXPECT_GE(out.fence_revocations, 1u);
  }
}

// Byte-identical determinism: the same seed produces the same counts
// AND the same telemetry registry snapshot, character for character.
TEST_F(FenceSoakTest, SameSeedSameTelemetrySnapshot) {
  const SoakOutcome a = RunFenceSoak(7);
  const SoakOutcome b = RunFenceSoak(7);
  EXPECT_TRUE(a == b) << "fenced soak must be bit-for-bit reproducible";
  EXPECT_EQ(a.telemetry_json, b.telemetry_json);
  EXPECT_FALSE(a.telemetry_json.empty());
}

// --- NIC op chains under the fence (DESIGN.md §15) --------------------------

class ChainFenceTest : public ::testing::Test {
 protected:
  template <typename Pred>
  static bool RunUntil(Testbed& tb, Pred pred, int max_steps = 30'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) return true;
      if (!tb.sim().Step()) return pred();
    }
    return pred();
  }

  struct ChainOutcome {
    uint64_t indirect_reads = 0;
    uint64_t chained_reads = 0;
    uint64_t chain_fallbacks = 0;
    uint64_t retries = 0;
    uint64_t fence_redirects = 0;
    std::string telemetry_json;
    bool bytes_ok = false;
  };

  /// One chained indirect read with a forced buggify schedule. The
  /// first consulted decision is this chase's kChainMidFault, so a
  /// leading `true` poisons the dependent hop's epoch mid-chain.
  static ChainOutcome RunForcedMidChainFault(std::vector<bool> schedule) {
    ChainOutcome out;
    chaos::Buggify buggify(std::move(schedule));
    TestbedOptions o;
    o.client.chain_reads = true;
    o.client.buggify = &buggify;
    Testbed tb(o);
    auto id_or = tb.client().CreateWithConfig(
        8 * kMiB, RdmaConfig{/*c=*/1, /*s=*/0, /*b=*/1, /*q=*/4},
        /*record_bytes=*/64);
    EXPECT_TRUE(id_or.ok()) << id_or.status().ToString();
    if (!id_or.ok()) return out;
    const auto id = *id_or;

    std::vector<uint8_t> rec(64);
    for (uint64_t j = 0; j < rec.size(); j++) rec[j] = PatternByte(64, j);
    const uint64_t word = 64 * kKiB;
    int setup = 0;
    auto wrote = [&setup](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      setup++;
    };
    EXPECT_TRUE(
        tb.client().Write(id, word, rec.data(), rec.size(), wrote).ok());
    EXPECT_TRUE(tb.client().Write(id, 128, &word, sizeof(word), wrote).ok());
    EXPECT_TRUE(RunUntil(tb, [&] { return setup == 2; }));

    std::vector<uint8_t> got(64);
    bool done = false;
    Status rs;
    EXPECT_TRUE(tb.client()
                    .ReadIndirect(id, 128, got.data(), got.size(),
                                  [&](Status st) {
                                    rs = st;
                                    done = true;
                                  })
                    .ok());
    EXPECT_TRUE(RunUntil(tb, [&] { return done; }));
    EXPECT_TRUE(rs.ok()) << rs.ToString();
    out.bytes_ok = rs.ok() && got == rec;

    const auto* st = tb.client().stats(id);
    out.indirect_reads = st->indirect_reads;
    out.chained_reads = st->chained_reads;
    out.chain_fallbacks = st->chain_fallbacks;
    out.retries = st->retries;
    out.fence_redirects = st->fence_redirects;
    out.telemetry_json = tb.telemetry().metrics().ToJson();
    return out;
  }
};

// A mid-chain stale epoch aborts the chain with one poisoned
// completion; the fence-redirect retry re-issues the chase hop-by-hop
// (plain READs are unfenced) and the application sees only a clean,
// correct read.
TEST_F(ChainFenceTest, MidChainStaleEpochRetriesUnchainedAndSucceeds) {
  const ChainOutcome out = RunForcedMidChainFault({true});
  EXPECT_TRUE(out.bytes_ok);
  EXPECT_EQ(out.indirect_reads, 1u);
  EXPECT_EQ(out.chained_reads, 0u);     // poisoned attempt never counts
  EXPECT_EQ(out.chain_fallbacks, 1u);   // retried as the two-hop chase
  EXPECT_GE(out.retries, 1u);
  EXPECT_GE(out.fence_redirects, 1u);
}

// The same forced schedule replays byte-identically, down to the
// telemetry registry snapshot.
TEST_F(ChainFenceTest, ForcedMidChainFaultReplaysByteIdentically) {
  const ChainOutcome a = RunForcedMidChainFault({true});
  const ChainOutcome b = RunForcedMidChainFault({true});
  EXPECT_EQ(a.telemetry_json, b.telemetry_json);
  EXPECT_FALSE(a.telemetry_json.empty());
}

// No fault injected: the chase stays on the one-doorbell fast path and
// none of the fence machinery engages.
TEST_F(ChainFenceTest, CleanChainTakesOneDoorbellNoRetries) {
  const ChainOutcome out = RunForcedMidChainFault({false});
  EXPECT_TRUE(out.bytes_ok);
  EXPECT_EQ(out.indirect_reads, 1u);
  EXPECT_EQ(out.chained_reads, 1u);
  EXPECT_EQ(out.chain_fallbacks, 0u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_EQ(out.fence_redirects, 0u);
}

// --- Lease behavior ---------------------------------------------------------

class LeaseTest : public ::testing::Test {
 protected:
  template <typename Pred>
  static bool RunUntil(Testbed& tb, Pred pred, int max_steps = 20'000'000) {
    for (int i = 0; i < max_steps; i++) {
      if (pred()) return true;
      if (!tb.sim().Step()) return pred();
    }
    return pred();
  }

  static TestbedOptions TwoSidedOpts() {
    TestbedOptions o;
    o.pods = 2;
    o.racks_per_pod = 2;
    o.servers_per_rack = 4;
    o.client.region_bytes = 256 * kKiB;
    o.client.max_retries = 6;
    o.client.sub_op_timeout_ns = 200 * kMicrosecond;
    return o;
  }
};

// A write burst against a region whose lease lapsed is deferred, an
// explicit kLease round trip renews it, and the writes then complete —
// the lease hiccup consumes no retry budget and surfaces no error.
// Bursts (not singletons) keep the ops on the two-sided message ring:
// a batch of one converts to a one-sided write and bypasses the lease.
TEST_F(LeaseTest, LapsedLeaseDefersWriteUntilRenewal) {
  TestbedOptions o = TwoSidedOpts();
  Testbed tb(o);
  auto id_or = tb.client().CreateWithConfig(
      512 * kKiB, RdmaConfig{1, 1, 8, 4}, 64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;

  uint8_t rec[64];
  for (uint64_t j = 0; j < sizeof(rec); j++) rec[j] = PatternByte(0, j);
  int done = 0;
  auto burst = [&](uint64_t base) {
    for (uint64_t k = 0; k < 8; k++) {
      ASSERT_TRUE(tb.client()
                      .Write(id, base + k * 64, rec, sizeof(rec),
                             [&](Status st) {
                               EXPECT_TRUE(st.ok()) << st.ToString();
                               done++;
                             })
                      .ok());
    }
  };
  // First burst arms the lease via the piggybacked renewal on its
  // two-sided responses.
  burst(0);
  ASSERT_TRUE(RunUntil(tb, [&] { return done == 8; }));

  // Idle far past the lease TTL (1 ms default): the lease lapses with
  // no renewal traffic to piggyback on.
  tb.sim().RunFor(5 * kMillisecond);

  burst(1024);
  ASSERT_TRUE(RunUntil(tb, [&] { return done == 16; }));

  const auto* st = tb.client().stats(id);
  EXPECT_GE(st->lease_expirations, 1u)
      << "the idle write should have found its lease lapsed";
  EXPECT_GE(st->lease_renewals, 1u)
      << "an explicit kLease grant should have re-armed the lease";
  EXPECT_EQ(st->errors, 0u);
}

// --- Cutover fencing --------------------------------------------------------

// Migration mid-traffic with fencing on: writes left in flight when
// the hot region's VM is reclaimed either drain before the cutover or
// are fenced (ProtectionError) and redirected to the new placement.
// Either way every acknowledged byte survives, and the commit is
// observable as an epoch revocation.
TEST_F(FenceSoakTest, CutoverFencesAndRedirectsInFlightWrites) {
  TestbedOptions o;
  o.pods = 2;
  o.racks_per_pod = 2;
  o.servers_per_rack = 4;
  o.client.region_bytes = 1 * kMiB;
  o.client.max_regions_per_vm = 1;
  o.client.migration_chunk_bytes = 128 * kKiB;
  o.client.max_retries = 6;
  o.client.sub_op_timeout_ns = 200 * kMicrosecond;
  o.reclaim_notice = 30 * kMillisecond;
  Testbed tb(o);
  const uint64_t kRegion = o.client.region_bytes;

  auto id_or = tb.client().CreateWithConfig(
      2 * kMiB, RdmaConfig{1, 1, 8, 4}, 64, /*spot=*/true);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;

  uint64_t submitted = 0, completed = 0, ok = 0;
  std::map<uint64_t, uint64_t> acked;
  std::vector<std::unique_ptr<std::vector<uint8_t>>> bufs;
  auto write_at = [&](uint64_t addr, uint64_t len) {
    auto data = std::make_unique<std::vector<uint8_t>>(len);
    for (uint64_t j = 0; j < len; j++) (*data)[j] = PatternByte(addr, j);
    submitted++;
    ASSERT_TRUE(tb.client()
                    .Write(id, addr, data->data(), len,
                           [&, addr, len](Status st) {
                             completed++;
                             if (st.ok()) {
                               ok++;
                               acked[addr] = len;
                             }
                           })
                    .ok());
    bufs.push_back(std::move(data));
  };

  // Burst of one-sided slabs against region 0 plus two-sided records
  // against region 1, then reclaim region 0's VM while they're in
  // flight.
  for (uint32_t k = 0; k < 8; k++) write_at(k * (128 * kKiB), 64 * kKiB);
  for (uint32_t r = 0; r < 16; r++) write_at(kRegion + 64 * kKiB + r * 64, 64);
  tb.sim().RunFor(3 * kMicrosecond);
  auto victim = tb.client().RegionVm(id, 0);
  ASSERT_TRUE(victim.ok());
  ASSERT_TRUE(tb.allocator().Reclaim(*victim).ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return completed == submitted; }));
  tb.sim().RunFor(10 * kMillisecond);

  const auto* st = tb.client().stats(id);
  EXPECT_GE(st->fence_revocations, 1u)
      << "the migration commit must revoke the old placement's epoch";
  EXPECT_EQ(st->checksum_mismatches, 0u);
  EXPECT_GT(ok, 0u);

  // Every acknowledged byte reads back exactly from the new placement.
  for (const auto& [addr, len] : acked) {
    std::vector<uint8_t> got(len);
    bool done = false;
    Status rs;
    ASSERT_TRUE(tb.client()
                    .Read(id, addr, got.data(), len,
                          [&](Status s) {
                            rs = s;
                            done = true;
                          })
                    .ok());
    ASSERT_TRUE(RunUntil(tb, [&] { return done; }));
    ASSERT_TRUE(rs.ok()) << rs.ToString();
    for (uint64_t j = 0; j < len; j++) {
      ASSERT_EQ(got[j], PatternByte(addr, j))
          << "acked byte mismatch at addr " << addr << " + " << j;
    }
  }
}

}  // namespace
}  // namespace redy
