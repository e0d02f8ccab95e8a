// Telemetry subsystem tests: metrics registry snapshots, windowed-
// histogram rotation, span nesting/parenting, Perfetto-JSON validity
// and byte-for-byte determinism across identically seeded runs, the
// ResetStats-vs-background-poller race regression, and the zero-
// allocation guard for the disabled tracer on the read hot path.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/storm.h"
#include "common/logging.h"
#include "redy/cache_client.h"
#include "redy/testbed.h"
#include "telemetry/telemetry.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator-new form funnels through
// CountedAlloc so tests can assert "this code path allocates nothing".
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace redy {
namespace {

using telemetry::MetricsRegistry;
using telemetry::SpanTracer;
using telemetry::WindowedHistogram;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator (structure only, no DOM):
// enough to prove the exported artifacts parse as strict JSON.
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& s) : s_(s) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool Value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    pos_++;  // '{'
    SkipWs();
    if (Peek() == '}') { pos_++; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      pos_++;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { pos_++; continue; }
      if (Peek() == '}') { pos_++; return true; }
      return false;
    }
  }
  bool Array() {
    pos_++;  // '['
    SkipWs();
    if (Peek() == ']') { pos_++; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { pos_++; continue; }
      if (Peek() == ']') { pos_++; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    pos_++;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') pos_++;
      pos_++;
    }
    if (pos_ >= s_.size()) return false;
    pos_++;  // closing quote
    return true;
  }
  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') pos_++;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      pos_++;
    }
    return pos_ > start;
  }
  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      pos_++;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CountersGaugesAndSnapshots) {
  sim::Simulation sim;
  MetricsRegistry reg(&sim);

  telemetry::Counter* c =
      reg.GetCounter("redy.test.ops", {{"cache", "1"}, {"vm", "7"}});
  telemetry::Counter* same =
      reg.GetCounter("redy.test.ops", {{"cache", "1"}, {"vm", "7"}});
  EXPECT_EQ(c, same);  // one identity, one object
  telemetry::Counter* other =
      reg.GetCounter("redy.test.ops", {{"cache", "2"}, {"vm", "7"}});
  EXPECT_NE(c, other);

  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->Value(), 42u);

  telemetry::Gauge* g = reg.GetGauge("redy.test.inflight");
  g->Set(5);
  g->Sub(2);
  EXPECT_EQ(g->Value(), 3);

  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"redy.test.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"cache\":\"1\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);

  // Snapshots are deterministic (registration order, no timestamps
  // beyond sim-now, which has not advanced).
  EXPECT_EQ(json, reg.ToJson());
}

TEST(MetricsRegistryTest, KindMismatchIsFatal) {
  sim::Simulation sim;
  MetricsRegistry reg(&sim);
  reg.GetCounter("redy.test.metric");
  EXPECT_DEATH(reg.GetGauge("redy.test.metric"), "");
}

TEST(WindowedHistogramTest, RotationAcrossWindowBoundaries) {
  sim::Simulation sim;
  WindowedHistogram h(&sim, 1000);  // 1 us windows

  h.Add(100);
  h.Add(200);
  EXPECT_EQ(h.current_window().count(), 2u);
  EXPECT_EQ(h.last_window().count(), 0u);
  EXPECT_EQ(h.cumulative().count(), 2u);

  // Cross into the next window: the in-progress window becomes the
  // last completed one.
  sim.At(1500, [] {});
  while (sim.Step()) {
  }
  ASSERT_EQ(sim.Now(), 1500u);
  h.Add(300);
  EXPECT_EQ(h.current_window().count(), 1u);
  EXPECT_EQ(h.last_window().count(), 2u);
  EXPECT_EQ(h.cumulative().count(), 3u);

  // Skip several windows: the last completed window is empty (nothing
  // was recorded in the window immediately before now).
  sim.At(5200, [] {});
  while (sim.Step()) {
  }
  EXPECT_EQ(h.last_window().count(), 0u);
  EXPECT_EQ(h.current_window().count(), 0u);
  EXPECT_EQ(h.cumulative().count(), 3u);

  h.Reset();
  EXPECT_EQ(h.cumulative().count(), 0u);
}

// ---------------------------------------------------------------------------
// Span tracer
// ---------------------------------------------------------------------------

TEST(SpanTracerTest, SpansNestAndCarryParentLinks) {
  sim::Simulation sim;
  SpanTracer tracer(&sim);
  tracer.Enable();
  const telemetry::TrackId track = tracer.NewTrack("client", "worker 0");

  sim.At(100, [&] {
    const telemetry::SpanId outer =
        tracer.BeginSpan(track, "op", "test");
    sim.At(150, [&, outer] {
      const telemetry::SpanId inner =
          tracer.BeginSpan(track, "sub_op", "test", outer);
      sim.At(180, [&, outer, inner] {
        tracer.EndSpan(track, "sub_op", "test", inner);
        tracer.EndSpan(track, "op", "test", outer);
      });
    });
  });
  while (sim.Step()) {
  }

  EXPECT_EQ(tracer.recorded_events(), 4u);
  EXPECT_EQ(tracer.dropped_events(), 0u);
  const std::string json = tracer.ExportJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sub_op\""), std::string::npos);
  // The child's begin event links to its parent span id.
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
  // Begin/end phases for nestable async events, µs timestamps from ns.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":0.100"), std::string::npos);
}

TEST(SpanTracerTest, RingOverwritesOldestAndCountsDrops) {
  sim::Simulation sim;
  SpanTracer::Options opts;
  opts.ring_capacity = 16;
  SpanTracer tracer(&sim, opts);
  tracer.Enable();
  const telemetry::TrackId track = tracer.NewTrack("client", "hot");
  for (uint64_t i = 0; i < 100; i++) {
    tracer.Instant(track, "tick", "test", i, {"i", i});
  }
  EXPECT_EQ(tracer.recorded_events(), 100u);
  EXPECT_EQ(tracer.dropped_events(), 84u);
  const std::string json = tracer.ExportJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  // Only the newest events survive.
  EXPECT_EQ(json.find("\"i\":83"), std::string::npos);
  EXPECT_NE(json.find("\"i\":99"), std::string::npos);
}

TEST(SpanTracerTest, DisabledTracerRecordsNothing) {
  sim::Simulation sim;
  SpanTracer tracer(&sim);
  const telemetry::TrackId track = tracer.NewTrack("client", "idle");
  EXPECT_EQ(tracer.BeginSpan(track, "op", "test"), 0u);
  tracer.Instant(track, "tick", "test", 5);
  tracer.AsyncBegin(track, "op", "test", 1, 5);
  tracer.AsyncEnd(track, "op", "test", 1, 9);
  EXPECT_EQ(tracer.recorded_events(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: instrumented storm workload. Deterministic across runs,
// valid JSON, and the acceptance-spec span families are present.
// ---------------------------------------------------------------------------

struct StormArtifacts {
  std::string trace;
  std::string metrics;
};

StormArtifacts RunInstrumentedStorm() {
  TestbedOptions o;
  o.pods = 2;
  o.racks_per_pod = 2;
  o.servers_per_rack = 8;
  o.client.region_bytes = 2 * kMiB;
  o.client.max_regions_per_vm = 1;
  o.reclaim_notice = 3 * kMillisecond;
  Testbed tb(o);
  tb.telemetry().tracer().Enable();

  const uint64_t cap = 4 * o.client.region_bytes;
  auto id_or = tb.client().CreateWithConfig(cap, RdmaConfig{1, 0, 1, 8}, 64,
                                            /*spot=*/true);
  REDY_CHECK(id_or.ok());
  std::vector<uint8_t> data(cap);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(SplitMix64(i) >> 3);
  }
  REDY_CHECK(tb.client().Poke(*id_or, 0, data.data(), data.size()).ok());

  chaos::ReclamationStorm::Options sopts;
  sopts.seed = 42;
  sopts.start = tb.sim().Now() + 100 * kMicrosecond;
  sopts.stagger = 500 * kMicrosecond;
  for (uint32_t r = 0; r < 2; r++) {
    auto vm = tb.client().RegionVm(*id_or, r);
    REDY_CHECK(vm.ok());
    sopts.victims.push_back(*vm);
  }
  chaos::ReclamationStorm storm(&tb.sim(), &tb.allocator(), sopts);
  storm.set_telemetry(&tb.telemetry());

  chaos::FaultInjector* inj = tb.EnableChaos({});
  inj->AddDegrade(tb.app_node(), 1, sopts.start, 1 * kMillisecond,
                  2 * kMicrosecond);
  inj->AddStall(3, sopts.start, 500 * kMicrosecond);
  storm.Arm();

  for (int i = 0; i < 50'000'000; i++) {
    if (storm.reclaims_issued() == 2 &&
        tb.sim().Now() > storm.last_deadline() &&
        tb.client().PendingRecoveries() == 0) {
      break;
    }
    if (!tb.sim().Step()) break;
  }
  return {tb.telemetry().tracer().ExportJson(),
          tb.telemetry().metrics().ToJson()};
}

TEST(TelemetryEndToEndTest, StormTraceIsValidAndDeterministic) {
  const StormArtifacts a = RunInstrumentedStorm();
  const StormArtifacts b = RunInstrumentedStorm();
  // Identically seeded runs export byte-identical artifacts.
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.metrics, b.metrics);

  EXPECT_TRUE(JsonValidator(a.trace).Valid());
  EXPECT_TRUE(JsonValidator(a.metrics).Valid());

  // The span families the trace must contain: QP-level WQE lifecycle,
  // migration job spans, and fault/storm window events.
  EXPECT_NE(a.trace.find("\"cat\":\"wqe\""), std::string::npos);
  EXPECT_NE(a.trace.find("\"name\":\"doorbell\""), std::string::npos);
  EXPECT_NE(a.trace.find("\"name\":\"migration_job\""), std::string::npos);
  EXPECT_NE(a.trace.find("\"cat\":\"fault\""), std::string::npos);
  EXPECT_NE(a.trace.find("\"name\":\"reclaim_notice\""), std::string::npos);
  EXPECT_NE(a.trace.find("\"displayTimeUnit\":\"ns\""), std::string::npos);
  // Metrics registry captured rdma + recovery counters.
  EXPECT_NE(a.metrics.find("rdma.wqe_posted"), std::string::npos);
  EXPECT_NE(a.metrics.find("redy.recovery.pending"), std::string::npos);
}

// ---------------------------------------------------------------------------
// ResetStats vs concurrent background increments (the regression the
// registry migration fixes): resetting one cache's view must not lose
// increments racing in from recovery pollers, must not disturb the
// lifetime registry counters, and the Stats pointer stays stable.
// ---------------------------------------------------------------------------

TEST(TelemetryStatsTest, ResetStatsRebasesWithoutLosingIncrements) {
  Testbed tb;
  auto id_or = tb.client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 8},
                                            64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;

  auto write_batch = [&](int n) {
    int done = 0;
    std::vector<uint8_t> buf(64, 0xAB);
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(tb.client()
                      .Write(id, static_cast<uint64_t>(i) * 64, buf.data(),
                             buf.size(), [&](Status st) {
                               ASSERT_TRUE(st.ok());
                               done++;
                             })
                      .ok());
    }
    while (done < n && tb.sim().Step()) {
    }
    ASSERT_EQ(done, n);
  };

  write_batch(10);
  CacheClient::Stats* stats = tb.client().stats(id);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->writes_completed, 10u);
  EXPECT_EQ(stats->write_latency_ns.count(), 10u);

  // The registry counter is the lifetime truth behind the view.
  telemetry::Counter* lifetime = tb.telemetry().metrics().GetCounter(
      "redy.client.writes_completed", {{"cache", std::to_string(id)}});
  EXPECT_EQ(lifetime->Value(), 10u);

  tb.client().ResetStats(id);
  // Same pointer, zeroed view, untouched lifetime counter.
  EXPECT_EQ(tb.client().stats(id), stats);
  EXPECT_EQ(stats->writes_completed, 0u);
  EXPECT_EQ(stats->write_latency_ns.count(), 0u);
  EXPECT_EQ(lifetime->Value(), 10u);

  // Increments that land after (or race with) the reset are all
  // visible in the re-based view — none are wiped.
  write_batch(5);
  ASSERT_EQ(tb.client().stats(id), stats);
  EXPECT_EQ(stats->writes_completed, 5u);
  EXPECT_EQ(stats->write_latency_ns.count(), 5u);
  EXPECT_EQ(lifetime->Value(), 15u);
}

// Every per-cache metric, in the order a metrics snapshot lists it,
// and the Stats field each counter feeds. A renamed, dropped, reordered
// or mis-wired counter changes the snapshot that same-seed runs compare
// byte for byte, or the Stats a test reads.
TEST(TelemetryStatsTest, CacheMetricsListInRegistrationOrder) {
  struct Row {
    const char* metric;
    uint64_t CacheClient::Stats::*stat;
  };
  const std::vector<Row> counters = {
      {"redy.client.reads_completed", &CacheClient::Stats::reads_completed},
      {"redy.client.writes_completed", &CacheClient::Stats::writes_completed},
      {"redy.client.read_bytes", &CacheClient::Stats::read_bytes},
      {"redy.client.write_bytes", &CacheClient::Stats::write_bytes},
      {"redy.client.errors", &CacheClient::Stats::errors},
      {"redy.client.one_sided_ops", &CacheClient::Stats::one_sided_ops},
      {"redy.client.batched_ops", &CacheClient::Stats::batched_ops},
      {"redy.client.parked_ops", &CacheClient::Stats::parked_ops},
      {"redy.client.retries", &CacheClient::Stats::retries},
      {"redy.client.timeouts", &CacheClient::Stats::timeouts},
      {"redy.client.reconnects", &CacheClient::Stats::reconnects},
      {"redy.client.hedged_to_replica", &CacheClient::Stats::hedged_to_replica},
      {"redy.recovery.migration_resumes",
       &CacheClient::Stats::migration_resumes},
      {"redy.recovery.migration_retargets",
       &CacheClient::Stats::migration_retargets},
      {"redy.recovery.repairs_started", &CacheClient::Stats::repairs_started},
      {"redy.recovery.repairs_completed",
       &CacheClient::Stats::repairs_completed},
      {"redy.recovery.storm_regions_lost",
       &CacheClient::Stats::storm_regions_lost},
      {"fence.revocations", &CacheClient::Stats::fence_revocations},
      {"fence.stale_rejected", &CacheClient::Stats::fence_stale_rejected},
      {"fence.redirects", &CacheClient::Stats::fence_redirects},
      {"fence.lease_renewals", &CacheClient::Stats::lease_renewals},
      {"fence.lease_expirations", &CacheClient::Stats::lease_expirations},
      {"integrity.checksum_mismatches",
       &CacheClient::Stats::checksum_mismatches},
      {"integrity.chunks_verified", &CacheClient::Stats::chunks_verified},
      {"overload.admission_rejected", &CacheClient::Stats::admission_rejected},
      {"overload.shed_ops", &CacheClient::Stats::shed_ops},
      {"overload.shed_bytes", &CacheClient::Stats::shed_bytes},
      {"overload.busy_pushbacks", &CacheClient::Stats::busy_pushbacks},
      {"overload.retry_budget_exhausted",
       &CacheClient::Stats::retry_budget_exhausted},
      {"overload.hedge_budget_exhausted",
       &CacheClient::Stats::hedge_budget_exhausted},
      {"overload.hedge_suppressed", &CacheClient::Stats::hedge_suppressed},
      {"overload.breaker_trips", &CacheClient::Stats::breaker_trips},
      {"overload.breaker_probes", &CacheClient::Stats::breaker_probes},
      {"overload.brownout_trips", &CacheClient::Stats::brownout_trips},
      {"redy.client.indirect_reads", &CacheClient::Stats::indirect_reads},
      {"redy.client.chained_reads", &CacheClient::Stats::chained_reads},
      {"redy.client.chain_fallbacks", &CacheClient::Stats::chain_fallbacks},
  };
  Testbed tb;
  auto id_or = tb.client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 8},
                                            64);
  ASSERT_TRUE(id_or.ok());
  const std::string id = std::to_string(*id_or);

  std::vector<std::string> expected;
  for (const Row& r : counters) expected.push_back(r.metric);
  expected.insert(expected.end(),
                  {"redy.client.read_latency_ns",
                   "redy.client.write_latency_ns",
                   "redy.client.inflight_ops"});
  const std::string json = tb.telemetry().metrics().ToJson();
  const std::string name_key = "{\"name\":\"";
  const std::string labels = ",\"labels\":{\"cache\":\"" + id + "\"}";
  std::vector<std::string> listed;
  for (size_t pos = json.find(name_key); pos != std::string::npos;
       pos = json.find(name_key, pos + 1)) {
    const size_t begin = pos + name_key.size();
    const size_t end = json.find('"', begin);
    if (json.compare(end + 1, labels.size(), labels) == 0) {
      listed.push_back(json.substr(begin, end - begin));
    }
  }
  EXPECT_EQ(listed, expected);

  // Counter i moves its own Stats field, by i + 1, and no other.
  const CacheClient::Stats before = *tb.client().stats(*id_or);
  for (size_t i = 0; i < counters.size(); i++) {
    tb.telemetry()
        .metrics()
        .GetCounter(counters[i].metric, {{"cache", id}})
        ->Inc(i + 1);
  }
  const CacheClient::Stats* after = tb.client().stats(*id_or);
  for (size_t i = 0; i < counters.size(); i++) {
    EXPECT_EQ(after->*counters[i].stat - before.*counters[i].stat, i + 1)
        << counters[i].metric;
  }
}

// ---------------------------------------------------------------------------
// Overhead guard: with tracing disabled, the telemetry primitives on
// the hot path allocate nothing, and a warm Read batch has a stable
// allocation profile (no per-op telemetry allocations sneaking in).
// ---------------------------------------------------------------------------

TEST(TelemetryOverheadTest, DisabledTracingAllocatesNothingPerOp) {
  sim::Simulation sim;
  telemetry::Telemetry tel(&sim);
  telemetry::Counter* c = tel.metrics().GetCounter("redy.test.hot");
  telemetry::WindowedHistogram* h =
      tel.metrics().GetHistogram("redy.test.lat");
  const telemetry::TrackId track = tel.tracer().NewTrack("client", "hot");

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; i++) {
    c->Inc();
    h->Add(100);
    tel.tracer().Instant(track, "tick", "test", 0);
    tel.tracer().AsyncBegin(track, "op", "test", 1, 0);
    tel.tracer().AsyncEnd(track, "op", "test", 1, 0);
  }
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

TEST(TelemetryOverheadTest, WarmReadBatchSteadyStateAllocations) {
  Testbed tb;
  auto id_or = tb.client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 8},
                                            64);
  ASSERT_TRUE(id_or.ok());
  const auto id = *id_or;

  std::vector<uint8_t> buf(64);
  auto read_batch = [&]() -> uint64_t {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    int done = 0;
    for (int i = 0; i < 64; i++) {
      Status st = tb.client().Read(id, static_cast<uint64_t>(i) * 64,
                                   buf.data(), buf.size(),
                                   [&](Status) { done++; });
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
    while (done < 64 && tb.sim().Step()) {
    }
    return g_allocations.load(std::memory_order_relaxed) - before;
  };

  // Warm up rings, connections, and per-thread state; then identical
  // batches must have identical allocation counts — tracing is
  // disabled, so the telemetry layer contributes zero per-op
  // allocations and nothing accumulates.
  (void)read_batch();
  (void)read_batch();
  const uint64_t batch_a = read_batch();
  const uint64_t batch_b = read_batch();
  EXPECT_EQ(batch_a, batch_b);
}

// ---------------------------------------------------------------------------
// Thread-safety hammer (real-transport backend, DESIGN.md §13): the
// registry must take registrations, hot-path updates, and snapshot
// exports from real threads concurrently — the socket backend runs
// epoll workers and exporters beside the application loop. CI runs this
// under TSan.
TEST(MetricsRegistryThreads, ConcurrentRegisterUpdateAndExport) {
  sim::Simulation sim;
  telemetry::MetricsRegistry reg(&sim);
  constexpr int kThreads = 8;
  constexpr uint64_t kOpsPerThread = 4000;

  std::atomic<bool> go{false};
  std::vector<std::thread> updaters;
  for (int t = 0; t < kThreads; t++) {
    updaters.emplace_back([&reg, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      // Same-identity registrations race on purpose: every thread must
      // come back with the same fully built metric objects.
      telemetry::Counter* shared = reg.GetCounter("hammer.shared");
      telemetry::Counter* mine =
          reg.GetCounter("hammer.private", {{"t", std::to_string(t)}});
      telemetry::Gauge* gauge = reg.GetGauge("hammer.gauge");
      telemetry::WindowedHistogram* hist = reg.GetHistogram("hammer.latency");
      for (uint64_t i = 0; i < kOpsPerThread; i++) {
        shared->Inc();
        mine->Inc();
        gauge->Add(1);
        gauge->Sub(1);
        hist->Add(100 + i % 1000);
        if (i % 64 == 0) {
          // Keep registrations churning against the exporter walk.
          reg.GetCounter("hammer.churn",
                         {{"i", std::to_string(i % 8)}})
              ->Inc();
        }
      }
    });
  }

  std::atomic<bool> stop{false};
  std::thread exporter([&reg, &stop] {
    while (!stop.load(std::memory_order_acquire)) {
      EXPECT_FALSE(reg.ToJson().empty());
      (void)reg.size();
    }
  });

  go.store(true, std::memory_order_release);
  for (auto& th : updaters) th.join();
  stop.store(true, std::memory_order_release);
  exporter.join();

  EXPECT_EQ(reg.GetCounter("hammer.shared")->Value(),
            kThreads * kOpsPerThread);
  EXPECT_EQ(reg.GetGauge("hammer.gauge")->Value(), 0);
  EXPECT_EQ(reg.GetHistogram("hammer.latency")->SnapshotCumulative().count(),
            kThreads * kOpsPerThread);
  for (int t = 0; t < kThreads; t++) {
    EXPECT_EQ(
        reg.GetCounter("hammer.private", {{"t", std::to_string(t)}})->Value(),
        kOpsPerThread);
  }
}

}  // namespace
}  // namespace redy
