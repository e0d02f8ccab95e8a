// Overload-resilience tests (DESIGN.md §12): the admission-control /
// budget / breaker / brownout machinery in isolation, the server-side
// kBusy pushback and credit flow against a live testbed, and a seeded
// four-tenant OverloadStorm soak asserting the resilience contract:
// no op hangs, acknowledged bytes are never lost, per-tenant quotas
// bind within 5%, retries and hedges stay under their budget
// fractions, and the same seed reproduces byte-identical telemetry.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/overload_storm.h"
#include "redy/cache_client.h"
#include "redy/overload.h"
#include "redy/testbed.h"

namespace redy {
namespace {

constexpr uint64_t kRecord = 64;

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(TokenBucketTest, UnconfiguredAlwaysAdmits) {
  overload::TokenBucket b;
  EXPECT_FALSE(b.configured());
  for (int i = 0; i < 100; i++) EXPECT_TRUE(b.TryTake(0));
}

TEST(TokenBucketTest, EnforcesRateAndBurst) {
  overload::TokenBucket b;
  // 1e6 ops/s = 1 op/us sustained, burst of 4.
  b.Configure(1e6, 4, /*now=*/0);
  ASSERT_TRUE(b.configured());
  for (int i = 0; i < 4; i++) EXPECT_TRUE(b.TryTake(0)) << i;
  EXPECT_FALSE(b.TryTake(0)) << "burst exhausted";
  // 2 us later exactly two tokens have refilled.
  EXPECT_TRUE(b.TryTake(2000));
  EXPECT_TRUE(b.TryTake(2000));
  EXPECT_FALSE(b.TryTake(2000));
  // Refill caps at the burst depth no matter how long the idle gap.
  EXPECT_DOUBLE_EQ(b.tokens(1 * kSecond), 4.0);
}

TEST(RetryBudgetTest, CapsWithdrawalsAtDepositFraction) {
  overload::RetryBudget budget;
  // 0.25 is exactly representable, so 4 deposits buy exactly 1 token.
  budget.Configure(0.25, /*min_reserve=*/2);
  ASSERT_TRUE(budget.enabled());
  // The cold-start reserve grants the first two withdrawals.
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
  // Four fresh deposits at fraction 0.25 buy exactly one retry.
  for (int i = 0; i < 4; i++) budget.Deposit();
  EXPECT_TRUE(budget.TryWithdraw());
  EXPECT_FALSE(budget.TryWithdraw());
}

TEST(RetryBudgetTest, ZeroFractionNeverLimits) {
  overload::RetryBudget budget;
  budget.Configure(0.0, 10);
  EXPECT_FALSE(budget.enabled());
  for (int i = 0; i < 100; i++) EXPECT_TRUE(budget.TryWithdraw());
}

TEST(CircuitBreakerTest, TripsProbesAndRecloses) {
  overload::CircuitBreaker br;
  const uint32_t trip_after = 3;
  const uint64_t open_ns = 1000;
  EXPECT_TRUE(br.Allow(0));
  EXPECT_FALSE(br.RecordFailure(0, trip_after, open_ns));
  EXPECT_FALSE(br.RecordFailure(0, trip_after, open_ns));
  EXPECT_TRUE(br.RecordFailure(0, trip_after, open_ns)) << "third failure trips";
  EXPECT_TRUE(br.open(500));
  EXPECT_FALSE(br.Allow(500)) << "open: no traffic";
  // Past the cooldown exactly one half-open probe is admitted.
  EXPECT_TRUE(br.Allow(1000));
  EXPECT_FALSE(br.Allow(1000)) << "one probe at a time";
  br.RecordSuccess();
  EXPECT_TRUE(br.Allow(1001)) << "probe success recloses";
}

TEST(CircuitBreakerTest, HalfOpenFailureRetripsImmediately) {
  overload::CircuitBreaker br;
  for (int i = 0; i < 2; i++) br.RecordFailure(0, 2, 1000);
  ASSERT_TRUE(br.open(100));
  ASSERT_TRUE(br.Allow(1000));  // the probe
  EXPECT_TRUE(br.RecordFailure(1000, 2, 1000)) << "failed probe retrips";
  EXPECT_FALSE(br.Allow(1500));
  EXPECT_TRUE(br.Allow(2000));
}

// ---------------------------------------------------------------------------
// Client-level behavior
// ---------------------------------------------------------------------------

class OverloadTest : public ::testing::Test {
 protected:
  static TestbedOptions BaseOpts() {
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

  static net::ServerId NodeOfRegion(Testbed& tb, CacheClient::CacheId id,
                                    uint32_t vregion) {
    auto vm = tb.client().RegionVm(id, vregion);
    EXPECT_TRUE(vm.ok());
    return tb.allocator().Find(*vm)->server;
  }
};

TEST_F(OverloadTest, TenantQuotaFailsFastAndIsAccounted) {
  Testbed tb(BaseOpts());
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  // 1e6 ops/s = 1 op/us sustained with a burst of 4.
  ASSERT_TRUE(tb.client().SetTenantQuota(*id_or, 1e6, 4).ok());

  char buf[kRecord] = {1};
  int completed = 0;
  int accepted = 0, rejected = 0;
  auto submit = [&] {
    Status st = tb.client().Write(*id_or, 0, buf, kRecord,
                                  [&](Status) { completed++; });
    if (st.ok()) {
      accepted++;
    } else {
      EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
      rejected++;
    }
  };
  // Same-instant burst: the bucket admits exactly the burst depth.
  for (int i = 0; i < 10; i++) submit();
  EXPECT_EQ(accepted, 4);
  EXPECT_EQ(rejected, 6);
  // Two microseconds refill exactly two tokens.
  tb.sim().RunFor(2 * kMicrosecond);
  for (int i = 0; i < 3; i++) submit();
  EXPECT_EQ(accepted, 6);
  EXPECT_EQ(rejected, 7);

  ASSERT_TRUE(RunUntil(tb, [&] { return completed == accepted; }));
  const auto* stats = tb.client().stats(*id_or);
  EXPECT_EQ(stats->admission_rejected, 7u);
  EXPECT_EQ(stats->errors, 0u) << "admitted ops all complete cleanly";
}

TEST_F(OverloadTest, FullSubmitRingSurfacesBackpressureWithoutAborting) {
  // Satellite of DESIGN.md §12: a full client batch ring used to be a
  // REDY_CHECK abort; it must now surface as ResourceExhausted while
  // every accepted op still completes.
  Testbed tb(BaseOpts());
  // Four times the ring's capacity, one record each, all within the
  // cache.
  constexpr uint64_t kFlood = 4 * CacheClient::kBatchRingCapacity;
  auto id_or = tb.client().CreateWithConfig(kFlood * kRecord,
                                            RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());

  char buf[kRecord] = {3};
  uint64_t completed = 0, accepted = 0, rejected = 0;
  // Tight submission loop, no simulation steps in between: the ring
  // cannot drain, so admissions stop at its capacity.
  for (uint64_t i = 0; i < kFlood; i++) {
    Status st =
        tb.client().Write(*id_or, i * kRecord, buf, kRecord,
                          [&](Status cs) {
                            EXPECT_TRUE(cs.ok()) << cs.ToString();
                            completed++;
                          });
    if (st.ok()) {
      accepted++;
    } else {
      EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
      rejected++;
    }
  }
  EXPECT_EQ(accepted + rejected, kFlood);
  EXPECT_GT(rejected, 0u) << "the flood must hit the ring limit";
  EXPECT_LT(accepted, kFlood);
  EXPECT_EQ(accepted, CacheClient::kBatchRingCapacity);
  ASSERT_TRUE(RunUntil(tb, [&] { return completed == accepted; }));
  EXPECT_EQ(tb.client().stats(*id_or)->errors, 0u);
}

TEST_F(OverloadTest, NearlyFullRingRefusesMultiPieceWriteWhole) {
  // A replicated write across a region boundary stages four pieces
  // (two regions, each with a replica twin). With three free slots the
  // ring must refuse the whole op up front, not stage part of it.
  Testbed tb(BaseOpts());
  const uint64_t region = BaseOpts().client.region_bytes;
  auto id_or =
      tb.client().CreateReplicated(2 * region, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const CacheClient::CacheId id = *id_or;

  // Reads stage one piece each; leave exactly three slots free.
  constexpr uint64_t kFill = CacheClient::kBatchRingCapacity - 3;
  char sink[kRecord];
  uint64_t reads_done = 0;
  for (uint64_t i = 0; i < kFill; i++) {
    ASSERT_TRUE(tb.client()
                    .Read(id, 0, sink, kRecord,
                          [&](Status cs) {
                            EXPECT_TRUE(cs.ok()) << cs.ToString();
                            reads_done++;
                          })
                    .ok());
  }
  ASSERT_EQ(tb.client().InFlight(id), kFill);

  const uint64_t addr = region - kRecord / 2;  // straddles the boundary
  char payload[kRecord];
  for (uint64_t i = 0; i < kRecord; i++) payload[i] = static_cast<char>(i + 1);
  int write_cbs = 0;
  Status write_status = Status::Unavailable("write never completed");
  auto write = [&] {
    return tb.client().Write(id, addr, payload, kRecord, [&](Status cs) {
      write_cbs++;
      write_status = cs;
    });
  };
  const Status refused = write();
  EXPECT_TRUE(refused.IsResourceExhausted()) << refused.ToString();
  EXPECT_EQ(tb.client().InFlight(id), kFill);
  EXPECT_EQ(write_cbs, 0);

  // Once the ring drains, the same write is accepted and lands whole.
  ASSERT_TRUE(RunUntil(tb, [&] { return reads_done == kFill; }));
  EXPECT_EQ(write_cbs, 0) << "a refused op's callback must never run";
  ASSERT_TRUE(write().ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return write_cbs == 1; }));
  EXPECT_TRUE(write_status.ok()) << write_status.ToString();

  char back[kRecord] = {};
  bool read_back = false;
  ASSERT_TRUE(tb.client()
                  .Read(id, addr, back, kRecord,
                        [&](Status cs) {
                          EXPECT_TRUE(cs.ok()) << cs.ToString();
                          read_back = true;
                        })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return read_back; }));
  EXPECT_EQ(std::memcmp(back, payload, kRecord), 0);
  EXPECT_EQ(tb.client().InFlight(id), 0u);
}

TEST_F(OverloadTest, BusyPushbackShedsAndClientRetriesAbsorb) {
  TestbedOptions o = BaseOpts();
  o.server_overload.busy_pushback = true;
  o.server_overload.credit_flow = true;
  o.server_overload.shed_low_watermark = 1;
  o.server_overload.shed_high_watermark = 2;
  o.client.credit_flow = true;
  o.client.max_retries = 10;
  o.client.retry_backoff_max_ns = 200 * kMicrosecond;
  o.client.sub_op_timeout_ns = 2 * kMillisecond;
  Testbed tb(o);
  // Four client threads (= four connections on the server's poll
  // sweep, which is what the backlog watermarks count), two-sided
  // rings with b = 2 ops per batch, q = 4 slots.
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{4, 1, 2, 4}, 64);
  ASSERT_TRUE(id_or.ok());
  const net::ServerId node = NodeOfRegion(tb, *id_or, 0);
  auto vm_or = tb.client().RegionVm(*id_or, 0);
  ASSERT_TRUE(vm_or.ok());
  CacheServer* server = tb.manager().ServerFor(*vm_or);
  ASSERT_NE(server, nullptr);

  // Warmup: establish all four connections before the stall (the
  // connect handshake itself crosses the server NIC).
  char buf[kRecord] = {5};
  int warm = 0;
  for (uint32_t t = 0; t < 4; t++) {
    ASSERT_TRUE(tb.client()
                    .Write(*id_or, 1 * kMiB + t * kRecord, buf, kRecord,
                           [&](Status st) {
                             EXPECT_TRUE(st.ok()) << st.ToString();
                             warm++;
                           },
                           t)
                    .ok());
  }
  ASSERT_TRUE(RunUntil(tb, [&] { return warm == 4; }));

  // Stall the server NIC while a batch per connection is staged: when
  // the stall lifts they all land at once, the ready backlog crosses
  // the watermarks, and the server sheds with kBusy instead of queueing.
  chaos::FaultInjector::Options copts;
  copts.servers = {node};
  auto* chaos = tb.EnableChaos(copts);
  chaos->AddStall(node, tb.sim().Now(), 200 * kMicrosecond);

  int completed = 0, failed = 0;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(tb.client()
                    .Write(*id_or, i * kRecord, buf, kRecord,
                           [&](Status st) {
                             completed++;
                             if (!st.ok()) failed++;
                           },
                           /*app_thread=*/i % 4)
                    .ok());
  }
  ASSERT_TRUE(RunUntil(tb, [&] { return completed == 8; }));
  EXPECT_EQ(failed, 0) << "busy-backoff retries absorb the pushback";

  const auto* stats = tb.client().stats(*id_or);
  EXPECT_GT(stats->busy_pushbacks, 0u) << "client saw explicit kBusy";
  EXPECT_GT(stats->retries, 0u);
  EXPECT_GT(server->busy_shed_ops(), 0u) << "server shed instead of queueing";
  EXPECT_GT(server->credit_throttled_grants(), 0u)
      << "backlog shrank the granted send window";
}

TEST_F(OverloadTest, CircuitBreakerTripsShedsThenProbesBackIn) {
  TestbedOptions o = BaseOpts();
  o.client.circuit_breakers = true;
  o.client.breaker_trip_failures = 2;
  o.client.breaker_open_ns = 300 * kMicrosecond;
  o.client.max_retries = 0;  // surface every failure to the breaker fast
  Testbed tb(o);
  auto id_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(id_or.ok());
  const net::ServerId node = NodeOfRegion(tb, *id_or, 0);

  auto* chaos = tb.EnableChaos({});
  chaos->AddFlap(tb.app_node(), node, tb.sim().Now(), 100 * kMicrosecond);

  char buf[kRecord] = {9};
  auto one_write = [&](uint64_t addr) {
    Status result = Status::OK();
    int done = 0;
    EXPECT_TRUE(tb.client()
                    .Write(*id_or, addr, buf, kRecord,
                           [&](Status st) {
                             result = st;
                             done = 1;
                           })
                    .ok());
    EXPECT_TRUE(RunUntil(tb, [&] { return done == 1; }));
    return result;
  };

  // Two transport failures on the downed link trip the breaker...
  EXPECT_FALSE(one_write(0).ok());
  EXPECT_FALSE(one_write(kRecord).ok());
  const auto* stats = tb.client().stats(*id_or);
  ASSERT_GE(stats->breaker_trips, 1u);
  // ...after which ops shed client-side without touching the wire.
  EXPECT_TRUE(one_write(2 * kRecord).IsUnavailable());
  stats = tb.client().stats(*id_or);
  EXPECT_GE(stats->shed_ops, 1u);
  EXPECT_EQ(stats->shed_bytes, stats->shed_ops * kRecord);

  // Past the flap and the open window, the half-open probe recloses the
  // breaker and fresh traffic flows.
  tb.sim().RunFor(500 * kMicrosecond);
  EXPECT_TRUE(one_write(3 * kRecord).ok());
  stats = tb.client().stats(*id_or);
  EXPECT_GE(stats->breaker_probes, 1u);
  EXPECT_TRUE(one_write(4 * kRecord).ok());
}

TEST_F(OverloadTest, BrownoutShedsLowPriorityByteExact) {
  TestbedOptions o = BaseOpts();
  o.client.brownout = true;
  o.client.brownout_trip_signals = 4;
  o.client.brownout_window_ns = 200 * kMicrosecond;
  o.client.brownout_duration_ns = 500 * kMicrosecond;
  o.client.sub_op_timeout_ns = 100 * kMicrosecond;
  o.client.max_retries = 0;
  Testbed tb(o);
  auto hi_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  auto low_or =
      tb.client().CreateWithConfig(2 * kMiB, RdmaConfig{1, 0, 1, 8}, 64);
  ASSERT_TRUE(hi_or.ok() && low_or.ok());
  // Priority classes only (rate 0 = no quota): hi is never shed, low
  // is the first class brownout drops.
  ASSERT_TRUE(tb.client().SetTenantQuota(*hi_or, 0, 0, /*priority=*/0).ok());
  ASSERT_TRUE(tb.client().SetTenantQuota(*low_or, 0, 0, /*priority=*/2).ok());

  // Strand a window of in-flight ops on a stalled NIC: the timeout
  // sweep expires them together, and that burst of overload signals
  // trips the brownout.
  const net::ServerId node = NodeOfRegion(tb, *hi_or, 0);
  auto* chaos = tb.EnableChaos({});
  chaos->AddStall(node, tb.sim().Now(), 300 * kMicrosecond);

  char buf[kRecord] = {11};
  int completed = 0;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(tb.client()
                    .Write(*hi_or, i * kRecord, buf, kRecord,
                           [&](Status) { completed++; })
                    .ok());
  }
  ASSERT_TRUE(RunUntil(tb, [&] {
    return tb.client().stats(*hi_or)->brownout_trips >= 1;
  }));

  // While the shedding window is active: low-priority submissions fail
  // fast at the front door, high-priority ones are still admitted.
  Status low_st = tb.client().Write(*low_or, 0, buf, kRecord, [](Status) {});
  EXPECT_TRUE(low_st.IsUnavailable()) << low_st.ToString();
  int hi_done = 0;
  EXPECT_TRUE(tb.client()
                  .Write(*hi_or, kMiB, buf, kRecord,
                         [&](Status) { hi_done++; })
                  .ok())
      << "priority 0 is never shed";

  const auto* low_stats = tb.client().stats(*low_or);
  EXPECT_EQ(low_stats->shed_ops, 1u);
  EXPECT_EQ(low_stats->shed_bytes, kRecord) << "shed accounting is byte-exact";

  // Past the brownout window low-priority traffic flows again.
  tb.sim().RunFor(800 * kMicrosecond);
  int low_done = 0;
  EXPECT_TRUE(tb.client()
                  .Write(*low_or, 0, buf, kRecord, [&](Status) { low_done++; })
                  .ok());
  ASSERT_TRUE(RunUntil(tb, [&] { return low_done == 1 && hi_done == 1; }));
}

// ---------------------------------------------------------------------------
// Four-tenant OverloadStorm soak
// ---------------------------------------------------------------------------

uint8_t FillByte(uint32_t tenant, uint64_t idx, uint64_t i) {
  return static_cast<uint8_t>(tenant * 37 + idx * 131 + i * 7 + 13);
}

struct TenantCounts {
  uint64_t accepted = 0;       // Submit returned OK
  uint64_t quota_rejected = 0;  // ResourceExhausted at the front door
  uint64_t shed = 0;            // Unavailable at the front door (brownout)
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t corrupt = 0;
  uint64_t pieces = 0;  // fresh sub-op pieces staged (budget deposits)

  bool operator==(const TenantCounts& o) const {
    return accepted == o.accepted && quota_rejected == o.quota_rejected &&
           shed == o.shed && ok == o.ok && failed == o.failed &&
           corrupt == o.corrupt && pieces == o.pieces;
  }
};

struct SoakOutcome {
  TenantCounts tenants[4];
  std::string telemetry_json;

  bool operator==(const SoakOutcome& o) const {
    for (int t = 0; t < 4; t++) {
      if (!(tenants[t] == o.tenants[t])) return false;
    }
    return telemetry_json == o.telemetry_json;
  }
};

class OverloadSoakTest : public OverloadTest {
 protected:
  static constexpr double kRetryFraction = 0.2;
  static constexpr double kHedgeFraction = 0.1;
  static constexpr double kMinReserve = CacheClient::kBudgetMinReserve;

  static TestbedOptions SoakOpts() {
    TestbedOptions o = BaseOpts();
    // Resilience.
    o.client.max_retries = 6;
    o.client.sub_op_timeout_ns = 150 * kMicrosecond;
    o.client.retry_backoff_max_ns = 200 * kMicrosecond;
    // Overload machinery, all on.
    o.client.retry_budget_fraction = kRetryFraction;
    o.client.hedge_budget_fraction = kHedgeFraction;
    o.client.circuit_breakers = true;
    o.client.breaker_trip_failures = 4;
    o.client.breaker_open_ns = 200 * kMicrosecond;
    o.client.credit_flow = true;
    o.client.brownout = true;
    o.client.brownout_trip_signals = 8;
    o.client.brownout_window_ns = 100 * kMicrosecond;
    o.client.brownout_duration_ns = 200 * kMicrosecond;
    o.server_overload.busy_pushback = true;
    o.server_overload.credit_flow = true;
    return o;
  }

  /// Open-loop four-tenant soak under a seeded OverloadStorm. Tenant 0
  /// is replicated and top priority; tenants 1-3 carry quotas with
  /// descending priority. Two of the tenants' cache nodes also take
  /// NIC stalls timed inside the storm window, so demand surges land
  /// on degraded capacity.
  static SoakOutcome RunSoak(uint64_t seed) {
    SoakOutcome out;
    Testbed tb(SoakOpts());
    // Two client threads per tenant: two connections per cache server,
    // so a stalled tenant's backlog can cross the server watermarks.
    const RdmaConfig cfg{2, 1, 8, 4};

    CacheClient::CacheId ids[4];
    auto t0_or = tb.client().CreateReplicated(2 * kMiB, cfg, 64);
    EXPECT_TRUE(t0_or.ok()) << t0_or.status().ToString();
    if (!t0_or.ok()) return out;
    ids[0] = *t0_or;
    for (int t = 1; t < 4; t++) {
      auto id_or = tb.client().CreateWithConfig(2 * kMiB, cfg, 64);
      EXPECT_TRUE(id_or.ok()) << id_or.status().ToString();
      if (!id_or.ok()) return out;
      ids[t] = *id_or;
    }

    // Quotas and priority classes. Rates are in ops/s of simulated
    // time; offered load below is at least twice each quota, so for
    // un-stalled tenants the bucket is the binding constraint.
    const double rate[4] = {0, 4e5, 2e5, 4e5};
    const double burst[4] = {0, 8, 8, 16};
    EXPECT_TRUE(tb.client().SetTenantQuota(ids[0], 0, 0, 0).ok());
    EXPECT_TRUE(tb.client().SetTenantQuota(ids[1], rate[1], burst[1], 1).ok());
    EXPECT_TRUE(tb.client().SetTenantQuota(ids[2], rate[2], burst[2], 2).ok());
    EXPECT_TRUE(tb.client().SetTenantQuota(ids[3], rate[3], burst[3], 3).ok());
    const sim::SimTime t_quota = tb.sim().Now();

    // The storm: seeded demand surges for all four tenants plus NIC
    // stalls on tenant 3's node and tenant 0's primary, placed inside
    // the storm window.
    chaos::OverloadStorm::Options sopts;
    sopts.seed = seed;
    sopts.start = tb.sim().Now();
    sopts.duration = 2 * kMillisecond;
    sopts.tenants = 4;
    sopts.surges_per_tenant = 2;
    sopts.surge_ns = 300 * kMicrosecond;
    sopts.surge_multiplier = 4.0;
    sopts.stall_victims = {NodeOfRegion(tb, ids[3], 0),
                           NodeOfRegion(tb, ids[0], 0)};
    sopts.stall_ns = 300 * kMicrosecond;
    chaos::OverloadStorm storm(&tb.sim(), sopts);
    chaos::FaultInjector::Options copts;
    copts.seed = seed;
    copts.servers = sopts.stall_victims;
    storm.Arm(tb.EnableChaos(copts));

    // Open-loop driver: every 10 us each tenant offers its base rate
    // times the storm's demand multiplier. Writes are write-once per
    // record (acked ones become ground truth); one op in four reads an
    // already-acked record back and verifies it.
    uint64_t completed = 0, accepted_total = 0;
    TenantCounts* counts = out.tenants;
    uint64_t next_idx[4] = {0, 0, 0, 0};
    std::vector<uint64_t> acked[4];
    std::vector<std::unique_ptr<std::vector<uint8_t>>> bufs;
    Rng traffic_rng(seed ^ 0x5041D);
    const uint32_t base_per_tick[4] = {2, 8, 8, 8};
    const bool replicated[4] = {true, false, false, false};
    uint32_t submit_seq[4] = {0, 0, 0, 0};

    auto submit_one = [&](uint32_t t, bool is_read) {
      TenantCounts& c = counts[t];
      const uint32_t app_thread = submit_seq[t]++;
      if (is_read && acked[t].empty()) is_read = false;
      Status st;
      if (is_read) {
        const uint64_t idx =
            acked[t][traffic_rng.Uniform(acked[t].size())];
        auto dst = std::make_unique<std::vector<uint8_t>>(kRecord);
        auto* p = dst.get();
        st = tb.client().Read(
            ids[t], idx * kRecord, p->data(), kRecord,
            [&completed, &c, t, idx, p](Status cs) {
              completed++;
              if (!cs.ok()) {
                c.failed++;
                return;
              }
              c.ok++;
              for (uint64_t j = 0; j < kRecord; j++) {
                if ((*p)[j] != FillByte(t, idx, j)) {
                  c.corrupt++;
                  break;
                }
              }
            },
            app_thread);
        if (st.ok()) bufs.push_back(std::move(dst));
      } else {
        const uint64_t idx = next_idx[t];
        auto data = std::make_unique<std::vector<uint8_t>>(kRecord);
        for (uint64_t j = 0; j < kRecord; j++) {
          (*data)[j] = FillByte(t, idx, j);
        }
        st = tb.client().Write(
            ids[t], idx * kRecord, data->data(), kRecord,
            [&completed, &c, &acked, t, idx](Status cs) {
              completed++;
              if (cs.ok()) {
                c.ok++;
                acked[t].push_back(idx);
              } else {
                c.failed++;
              }
            },
            app_thread);
        if (st.ok()) {
          next_idx[t]++;
          bufs.push_back(std::move(data));
        }
      }
      if (st.ok()) {
        c.accepted++;
        accepted_total++;
        c.pieces += (!is_read && replicated[t]) ? 2 : 1;
      } else if (st.IsResourceExhausted()) {
        c.quota_rejected++;
      } else if (st.IsUnavailable()) {
        c.shed++;  // brownout at the front door (token already taken)
      } else {
        ADD_FAILURE() << "unexpected submit status " << st.ToString();
      }
    };

    sim::SimTime t_pump_end = tb.sim().Now();
    while (tb.sim().Now() <= storm.last_surge_end()) {
      t_pump_end = tb.sim().Now();
      for (uint32_t t = 0; t < 4; t++) {
        const double mult = storm.DemandMultiplier(t, tb.sim().Now());
        const uint32_t n =
            static_cast<uint32_t>(base_per_tick[t] * mult + 0.5);
        for (uint32_t k = 0; k < n; k++) {
          submit_one(t, /*is_read=*/(k % 4) == 3);
        }
      }
      tb.sim().RunFor(10 * kMicrosecond);
    }

    // Liveness: every accepted op completes — none hang in the storm's
    // wake.
    EXPECT_TRUE(RunUntil(tb, [&] { return completed == accepted_total; }))
        << "ops hung after the storm at t=" << tb.sim().Now();
    tb.sim().RunFor(500 * kMicrosecond);

    // Zero acked-byte loss: every acknowledged record reads back
    // exactly, on every tenant (including the replicated one).
    std::vector<uint8_t> rb(kRecord);
    for (uint32_t t = 0; t < 4; t++) {
      for (uint64_t idx : acked[t]) {
        EXPECT_TRUE(
            tb.client().Peek(ids[t], idx * kRecord, rb.data(), kRecord).ok());
        for (uint64_t j = 0; j < kRecord; j++) {
          if (rb[j] != FillByte(t, idx, j)) {
            counts[t].corrupt++;
            break;
          }
        }
      }
      EXPECT_EQ(counts[t].corrupt, 0u)
          << "tenant " << t << " lost acknowledged bytes";
    }

    // Per-tenant quota adherence. Tokens consumed = accepted + sheds
    // (brownout sheds happen after the bucket admits). The un-stalled
    // quota tenants (1 and 2) are offered at least 2x their rate the
    // whole run, so consumption must sit within 5% of the bucket cap;
    // the stalled tenant 3 must still never exceed it.
    uint64_t fresh_pieces = 0, sheds_total = 0;
    for (uint32_t t = 0; t < 4; t++) {
      fresh_pieces += counts[t].pieces;
      sheds_total += counts[t].shed;
      if (rate[t] == 0) continue;
      const double cap = burst[t] + rate[t] *
                                        static_cast<double>(t_pump_end -
                                                            t_quota) /
                                        1e9;
      const double consumed =
          static_cast<double>(counts[t].accepted + counts[t].shed);
      EXPECT_LE(consumed, cap * 1.05 + 2.0) << "tenant " << t;
      if (t == 1 || t == 2) {
        EXPECT_NEAR(consumed, cap, cap * 0.05 + 2.0) << "tenant " << t;
      }
      EXPECT_GT(counts[t].quota_rejected, 0u)
          << "tenant " << t << ": quota never bit under 2x offered load";
    }

    // Secondary traffic stays under its budget fraction. Breaker
    // diversions also count as hedges but are re-routings of a single
    // in-flight op (not duplicated traffic), so they get headroom
    // bounded by the observed trips.
    uint64_t retries = 0, hedges = 0, trips = 0, busy = 0, timeouts = 0;
    uint64_t admission_rejected = 0, shed_ops = 0, shed_bytes = 0;
    for (uint32_t t = 0; t < 4; t++) {
      const auto* s = tb.client().stats(ids[t]);
      retries += s->retries;
      hedges += s->hedged_to_replica;
      trips += s->breaker_trips;
      busy += s->busy_pushbacks;
      timeouts += s->timeouts;
      admission_rejected += s->admission_rejected;
      shed_ops += s->shed_ops;
      shed_bytes += s->shed_bytes;
    }
    EXPECT_LE(retries, kRetryFraction * fresh_pieces + kMinReserve + 1.0);
    EXPECT_LE(hedges,
              kHedgeFraction * fresh_pieces + kMinReserve + 128.0 * trips);
    // The storm actually stressed the system: quotas bit, and the
    // stalls produced overload signals (timeouts or explicit kBusy).
    EXPECT_GT(admission_rejected, 0u);
    EXPECT_GT(busy + timeouts, 0u) << "storm never produced overload";
    // Shed accounting is byte-exact: every op in this soak is one
    // record.
    EXPECT_EQ(shed_bytes, shed_ops * kRecord);
    // Front-door brownout sheds are a subset of the client's shed
    // accounting (the rest are breaker sheds counted mid-path).
    EXPECT_LE(sheds_total, shed_ops);

    out.telemetry_json = tb.telemetry().metrics().ToJson();
    return out;
  }
};

TEST_F(OverloadSoakTest, FourTenantStormHoldsTheResilienceContract) {
  for (uint64_t seed : {21u, 43u}) {
    SCOPED_TRACE(testing::Message() << "seed=" << seed);
    RunSoak(seed);
  }
}

TEST_F(OverloadSoakTest, SameSeedIsByteIdentical) {
  const SoakOutcome a = RunSoak(9);
  const SoakOutcome b = RunSoak(9);
  EXPECT_TRUE(a == b)
      << "same-seed soak must reproduce telemetry byte for byte";
  EXPECT_EQ(a.telemetry_json, b.telemetry_json);
}

}  // namespace
}  // namespace redy
