#include "cluster/fleet.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"

namespace redy::cluster {

namespace {

/// Three service classes in a Storm-like mix (Section 2: latency-bound
/// lookaside caches, balanced request/response services,
/// throughput-bound batch/scan workloads).
constexpr TenantClass kClasses[] = {
    {"latency", 64, 4, 8 * kMicrosecond, 4 * kMicrosecond},
    {"balanced", 512, 8, 16 * kMicrosecond, 6 * kMicrosecond},
    {"throughput", 4096, 16, 64 * kMicrosecond, 8 * kMicrosecond},
};
constexpr uint32_t kNumClasses =
    static_cast<uint32_t>(sizeof(kClasses) / sizeof(kClasses[0]));

constexpr uint32_t kMaxAttempts = 3;
constexpr sim::SimTime kRetryBackoffNs = 2 * kMicrosecond;
constexpr uint32_t kBreakerTripAfter = 8;
constexpr uint64_t kBreakerOpenNs = 50 * kMicrosecond;
/// Brownout fallback: an unplaced region serves from the tenant's own
/// memory at DRAM-ish cost.
constexpr sim::SimTime kLocalAccessNs = 900;
constexpr double kRetryMinReserve = 8.0;
constexpr uint32_t kReadRequestBytes = 32;
constexpr uint32_t kAckBytes = 32;

uint64_t RegionKey(uint32_t tenant, uint32_t rid) {
  return (static_cast<uint64_t>(tenant) << 32) | rid;
}

}  // namespace

const TenantClass* FleetTenantClasses(size_t* count) {
  *count = kNumClasses;
  return kClasses;
}

Fleet::Fleet(const FleetOptions& opts)
    : opts_(opts),
      topo_(opts.pods, opts.racks_per_pod, opts.servers_per_rack) {
  REDY_CHECK(opts_.tenants >= 1 && opts_.regions_per_tenant >= 1);
  lookahead_ = std::max<sim::SimTime>(
      1, net::MinCrossRackLatencyNs(topo_, opts_.fabric));
  traffic_start_ = opts_.warmup;
  end_ = opts_.warmup + opts_.duration;

  sim::ShardedEngine::Options eng;
  eng.partitions = static_cast<uint32_t>(topo_.num_racks());
  eng.workers = opts_.workers;
  eng.lookahead_ns = lookahead_;
  engine_ = std::make_unique<sim::ShardedEngine>(eng);

  manager_.headroom.assign(topo_.num_servers(), 0);
  racks_.reserve(topo_.num_racks());
  for (uint32_t r = 0; r < static_cast<uint32_t>(topo_.num_racks()); r++) {
    BuildRack(r);
  }
  manager_.placements = racks_[0]->metrics->GetCounter("manager_placements");
  manager_.place_failures =
      racks_[0]->metrics->GetCounter("manager_place_failures");
  BuildTenants();
}

Fleet::~Fleet() = default;

net::ServerId Fleet::HomeServerOf(uint32_t tenant) const {
  const uint32_t nr = static_cast<uint32_t>(topo_.num_racks());
  const uint32_t spr = static_cast<uint32_t>(opts_.servers_per_rack);
  return HomeRackOf(tenant) * spr + (tenant / nr) % spr;
}

uint32_t Fleet::ClassOf(uint32_t tenant) { return tenant % kNumClasses; }

sim::SimTime Fleet::RackDelay(uint32_t a, uint32_t b) const {
  int hops = net::FabricParams::kIntraRackHops;
  if (a != b) {
    const uint32_t rpp = static_cast<uint32_t>(opts_.racks_per_pod);
    hops = (a / rpp == b / rpp) ? net::FabricParams::kIntraClusterHops
                                : net::FabricParams::kInterClusterHops;
  }
  return opts_.fabric.OneWayNs(hops);
}

void Fleet::BuildRack(uint32_t r) {
  auto rack = std::make_unique<RackState>();
  rack->rack = r;
  rack->local_topo = net::Topology(1, 1, opts_.servers_per_rack);
  sim::Simulation& sim = engine_->partition(r);

  rack->alloc = std::make_unique<VmAllocator>(
      &sim, &rack->local_topo, opts_.cores_per_server,
      opts_.memory_per_server);

  // Compressed Azure-style trace: the Fig. 1-2 calibration knobs stay
  // at their defaults; only the timescale shrinks (minute medians ->
  // millisecond medians, day-long diurnal period -> tens of ms).
  TraceConfig tc;
  tc.target_core_utilization = opts_.target_core_utilization;
  tc.short_median_minutes =
      opts_.short_median_ms * static_cast<double>(kMillisecond) /
      static_cast<double>(kMinute);
  tc.long_median_minutes =
      opts_.long_median_ms * static_cast<double>(kMillisecond) /
      static_cast<double>(kMinute);
  tc.diurnal_period = opts_.diurnal_period;
  tc.diurnal_amplitude = opts_.diurnal_amplitude;
  tc.warmup = opts_.warmup;
  tc.duration = opts_.duration;
  tc.sample_interval = opts_.sample_interval;
  tc.seed = SplitMix64(opts_.seed ^ (0x9e370000ULL + r));
  rack->trace = std::make_unique<WorkloadTrace>(&sim, rack->alloc.get(), tc);
  rack->trace->Start();

  rack->metrics = std::make_unique<telemetry::MetricsRegistry>(&sim);
  rack->evictions = rack->metrics->GetCounter("cache_evictions");
  rack->harvested_bytes = rack->metrics->GetGauge("harvested_bytes");
  rack->regions_hosted = rack->metrics->GetGauge("regions_hosted");
  rack->stranded_permille = rack->metrics->GetGauge("stranded_permille");

  rack->servers.reserve(opts_.servers_per_rack);
  for (int i = 0; i < opts_.servers_per_rack; i++) {
    rack->servers.emplace_back(&opts_.fabric);
  }

  RackState* rp = rack.get();
  rack->sampler = std::make_unique<sim::Poller>(
      &sim, opts_.sample_interval, [this, rp]() -> uint64_t {
        SampleRack(*rp);
        return 1000;  // sampling + report cost on the rack agent
      });
  rack->sampler->Start(opts_.sample_interval);
  racks_.push_back(std::move(rack));
}

void Fleet::BuildTenants() {
  // First placement requests go out once the manager has seen a couple
  // of capacity reports; until grants land, tenants run in brownout.
  const sim::SimTime place_at =
      std::max<sim::SimTime>(2 * opts_.sample_interval, opts_.warmup / 2);

  tenants_.resize(opts_.tenants);
  for (uint32_t i = 0; i < opts_.tenants; i++) {
    Tenant& t = tenants_[i];
    t.id = i;
    t.cls = ClassOf(i);
    t.home_rack = HomeRackOf(i);
    t.home_server = HomeServerOf(i);
    t.rng = Rng(SplitMix64(opts_.seed ^ (0x7e7a0000ULL + i)));
    t.quota.Configure(opts_.quota_ops_per_sec, opts_.quota_burst, 0);
    t.retry.Configure(opts_.retry_fraction, kRetryMinReserve);
    t.regions.resize(opts_.regions_per_tenant);

    const TenantClass& cls = kClasses[t.cls];
    telemetry::MetricsRegistry& reg = *racks_[t.home_rack]->metrics;
    const telemetry::Labels labels = {{"tenant", std::to_string(i)},
                                      {"class", cls.name}};
    t.ops_ok = reg.GetCounter("tenant_ops_ok", labels);
    t.ops_rejected = reg.GetCounter("tenant_ops_rejected", labels);
    t.ops_busy = reg.GetCounter("tenant_ops_busy", labels);
    t.ops_failed = reg.GetCounter("tenant_ops_failed", labels);
    t.ops_shed = reg.GetCounter("tenant_ops_shed", labels);
    t.ops_local = reg.GetCounter("tenant_ops_local", labels);
    t.slo_violations = reg.GetCounter("tenant_slo_violations", labels);
    t.region_losses = reg.GetCounter("tenant_region_losses", labels);
    t.latency =
        reg.GetHistogram("tenant_latency_ns", labels, opts_.metrics_window);

    sim::Simulation& sim = engine_->partition(t.home_rack);
    for (uint32_t slot = 0; slot < opts_.regions_per_tenant; slot++) {
      sim.At(place_at + slot, [this, i, slot] {
        RequestPlacement(tenants_[i], slot);
      });
    }
    for (uint32_t s = 0; s < cls.streams; s++) {
      const sim::SimTime start = traffic_start_ + t.rng.Uniform(cls.think_ns);
      sim.At(start, [this, i] { IssueFresh(tenants_[i]); });
    }
  }
}

void Fleet::SampleRack(RackState& rack) {
  sim::Simulation& sim = engine_->partition(rack.rack);
  const sim::SimTime now = sim.Now();
  const uint32_t spr = static_cast<uint32_t>(opts_.servers_per_rack);

  std::vector<uint64_t> head(spr, 0);
  uint64_t harvested = 0;
  int64_t hosted = 0;
  for (uint32_t i = 0; i < spr; i++) {
    ServerState& ss = rack.servers[i];
    const PhysicalServer& ps = rack.alloc->server(i);
    // Memory pressure: VM allocations have first claim on the bytes
    // the cache harvested. Evict newest-first until the cache fits in
    // what the allocator can spare.
    while (ss.in_use > ps.memory_free() && !ss.installed.empty()) {
      const uint64_t key = ss.installed.back();
      ss.installed.pop_back();
      ss.in_use -= opts_.region_bytes;
      rack.evictions->Inc();
      const uint32_t tenant = static_cast<uint32_t>(key >> 32);
      const uint32_t rid = static_cast<uint32_t>(key & 0xffffffffu);
      const uint32_t home = HomeRackOf(tenant);
      engine_->Post(rack.rack, home, now + RackDelay(rack.rack, home),
                    [this, tenant, rid] { OnRegionLost(tenant, rid); });
    }
    ss.harvest_capacity = ps.stranded() ? ps.memory_free() : 0;
    head[i] =
        ss.harvest_capacity > ss.in_use ? ss.harvest_capacity - ss.in_use : 0;
    harvested += ss.in_use;
    hosted += static_cast<int64_t>(ss.installed.size());
  }
  rack.harvested_bytes->Set(static_cast<int64_t>(harvested));
  rack.regions_hosted->Set(hosted);
  rack.stranded_permille->Set(static_cast<int64_t>(
      rack.alloc->StrandedMemory() * 1000 / rack.alloc->TotalMemory()));

  // Capacity report to the manager (partition 0).
  const uint32_t r = rack.rack;
  engine_->Post(r, 0, now + RackDelay(r, 0),
                [this, r, head = std::move(head)]() mutable {
                  const size_t base =
                      static_cast<size_t>(r) * opts_.servers_per_rack;
                  for (size_t i = 0; i < head.size(); i++) {
                    manager_.headroom[base + i] = head[i];
                  }
                });
}

void Fleet::RequestPlacement(Tenant& t, uint32_t slot) {
  Region& r = t.regions[slot];
  r.remote = false;
  r.server = net::kInvalidServer;
  r.id = t.next_region_id++;
  const uint32_t rid = r.id;
  const uint32_t tenant = t.id;
  sim::Simulation& sim = engine_->partition(t.home_rack);
  const sim::SimTime at =
      sim.Now() + opts_.fabric.nic_post_ns + RackDelay(t.home_rack, 0);
  engine_->Post(t.home_rack, 0, at, [this, tenant, slot, rid] {
    ManagerPlace(tenant, slot, rid);
  });
}

void Fleet::ManagerPlace(uint32_t tenant, uint32_t slot, uint32_t rid) {
  sim::Simulation& sim = engine_->partition(0);
  const sim::SimTime now = sim.Now();

  // Max-headroom placement from the latest capacity reports;
  // deterministic tie-break on the lowest server id.
  net::ServerId best = net::kInvalidServer;
  uint64_t best_head = 0;
  for (uint32_t s = 0; s < manager_.headroom.size(); s++) {
    const uint64_t h = manager_.headroom[s];
    if (h >= opts_.region_bytes && h > best_head) {
      best = s;
      best_head = h;
    }
  }
  if (best == net::kInvalidServer) {
    manager_.place_failures->Inc();
    engine_->Post(0, 0, now + 4 * opts_.sample_interval,
                  [this, tenant, slot, rid] {
                    ManagerPlace(tenant, slot, rid);
                  });
    return;
  }
  // Optimistic decrement so back-to-back grants between reports do not
  // pile onto one server.
  manager_.headroom[best] -= opts_.region_bytes;
  manager_.placements->Inc();

  const uint32_t sr = RackOfServer(best);
  engine_->Post(0, sr, now + RackDelay(0, sr), [this, best, tenant, rid] {
    ServerState& ss = StateOf(best);
    ss.in_use += opts_.region_bytes;
    ss.installed.push_back(RegionKey(tenant, rid));
  });

  const uint32_t home = HomeRackOf(tenant);
  engine_->Post(
      0, home, now + opts_.fabric.nic_post_ns + RackDelay(0, home),
      [this, best, tenant, slot, rid] {
        Tenant& t = tenants_[tenant];
        Region& reg = t.regions[slot];
        if (reg.id == rid && !reg.remote) {
          reg.server = best;
          reg.remote = true;
          return;
        }
        // Stale grant (the slot moved on): release the install.
        const uint32_t sr2 = RackOfServer(best);
        sim::Simulation& hsim = engine_->partition(t.home_rack);
        engine_->Post(t.home_rack, sr2,
                      hsim.Now() + RackDelay(t.home_rack, sr2),
                      [this, best, tenant, rid] {
                        ServerState& ss = StateOf(best);
                        const uint64_t key = RegionKey(tenant, rid);
                        auto it = std::find(ss.installed.begin(),
                                            ss.installed.end(), key);
                        if (it != ss.installed.end()) {
                          ss.installed.erase(it);
                          ss.in_use -= opts_.region_bytes;
                        }
                      });
      });
}

void Fleet::OnRegionLost(uint32_t tenant, uint32_t rid) {
  Tenant& t = tenants_[tenant];
  for (uint32_t slot = 0; slot < t.regions.size(); slot++) {
    Region& r = t.regions[slot];
    if (r.id == rid && r.remote) {
      t.region_losses->Inc();
      RequestPlacement(t, slot);
      return;
    }
  }
}

void Fleet::IssueFresh(Tenant& t) {
  sim::Simulation& sim = engine_->partition(t.home_rack);
  const sim::SimTime now = sim.Now();
  if (!t.quota.TryTake(now)) {
    t.ops_rejected->Inc();
    ScheduleNext(t);
    return;
  }
  t.retry.Deposit();
  const uint32_t slot =
      static_cast<uint32_t>(t.rng.Uniform(t.regions.size()));
  const bool is_read = t.rng.Bernoulli(opts_.read_fraction);
  Dispatch(t, slot, is_read, now, 0);
}

void Fleet::Dispatch(Tenant& t, uint32_t slot, bool is_read,
                     sim::SimTime issued, uint32_t attempt) {
  sim::Simulation& sim = engine_->partition(t.home_rack);
  const sim::SimTime now = sim.Now();
  const TenantClass& cls = kClasses[t.cls];
  Region& r = t.regions[slot];

  if (!r.remote) {
    // Brownout: no remote placement yet (or it was just lost); serve
    // from the tenant's own memory and count the shortfall.
    const uint32_t tenant = t.id;
    sim.At(now + kLocalAccessNs, [this, tenant, issued] {
      Tenant& tt = tenants_[tenant];
      tt.ops_local->Inc();
      Complete(tt, issued);
    });
    return;
  }

  const net::ServerId target = r.server;
  overload::CircuitBreaker& br = BreakerFor(t, target);
  if (!br.Allow(now)) {
    t.ops_shed->Inc();
    ScheduleNext(t);
    return;
  }
  const uint32_t rid = r.id;

  // Client send: post the WQE, fetch the payload over PCIe when a
  // write exceeds the inline threshold, then serialize on the home
  // server's NIC port.
  const uint32_t req_bytes = is_read ? kReadRequestBytes : cls.record_bytes;
  sim::SimTime post = now + opts_.fabric.nic_post_ns;
  if (!is_read && cls.record_bytes > opts_.fabric.inline_threshold_bytes) {
    post += opts_.fabric.pcie_fetch_ns;
  }
  ServerState& home_ss = StateOf(t.home_server);
  const sim::SimTime tx_end = home_ss.tx.Reserve(post, req_bytes);
  const int hops = topo_.SwitchHops(t.home_server, target);
  const sim::SimTime arrive = tx_end + opts_.fabric.OneWayNs(hops);

  const uint32_t tenant = t.id;
  engine_->Post(t.home_rack, RackOfServer(target), arrive,
                [this, target, tenant, slot, rid, is_read, issued, attempt] {
                  ServeOp(target, tenant, slot, rid, is_read, issued,
                          attempt);
                });
}

void Fleet::ServeOp(net::ServerId s, uint32_t tenant, uint32_t slot,
                    uint32_t rid, bool is_read, sim::SimTime issued,
                    uint32_t attempt) {
  const uint32_t r = RackOfServer(s);
  sim::Simulation& sim = engine_->partition(r);
  const sim::SimTime now = sim.Now();
  ServerState& ss = StateOf(s);
  const uint32_t home = HomeRackOf(tenant);
  const int hops = topo_.SwitchHops(s, HomeServerOf(tenant));

  const uint64_t key = RegionKey(tenant, rid);
  OpStatus status = OpStatus::kOk;
  if (std::find(ss.installed.begin(), ss.installed.end(), key) ==
      ss.installed.end()) {
    status = OpStatus::kUnavailable;
  } else if (ss.in_service >= opts_.server_busy_depth) {
    status = OpStatus::kBusy;
  }
  if (status != OpStatus::kOk) {
    const sim::SimTime back =
        now + opts_.fabric.nic_post_ns + opts_.fabric.OneWayNs(hops);
    engine_->Post(r, home, back,
                  [this, s, tenant, slot, rid, is_read, issued, attempt,
                   status] {
                    OnOpDone(tenants_[tenant], s, slot, rid, is_read, status,
                             issued, attempt);
                  });
    return;
  }

  ss.in_service++;
  const TenantClass& cls = kClasses[ClassOf(tenant)];
  const sim::SimTime start = std::max(now, ss.next_issue);
  ss.next_issue = start + opts_.fabric.wqe_issue_gap_ns;
  sim::SimTime svc = start + opts_.fabric.nic_remote_dma_ns;
  if (is_read) svc += opts_.fabric.pcie_fetch_ns;  // fetch the record
  const uint32_t resp_bytes = is_read ? cls.record_bytes : kAckBytes;
  const sim::SimTime resp_end = ss.tx.Reserve(svc, resp_bytes);
  sim.At(resp_end, [this, s] { StateOf(s).in_service--; });

  const sim::SimTime back = resp_end + opts_.fabric.OneWayNs(hops);
  engine_->Post(r, home, back,
                [this, s, tenant, slot, rid, is_read, issued, attempt] {
                  OnOpDone(tenants_[tenant], s, slot, rid, is_read,
                           OpStatus::kOk, issued, attempt);
                });
}

void Fleet::OnOpDone(Tenant& t, net::ServerId target, uint32_t slot,
                     uint32_t rid, bool is_read, OpStatus status,
                     sim::SimTime issued, uint32_t attempt) {
  sim::Simulation& sim = engine_->partition(t.home_rack);
  const sim::SimTime now = sim.Now();
  overload::CircuitBreaker& br = BreakerFor(t, target);

  if (status == OpStatus::kOk) {
    br.RecordSuccess();
    Complete(t, issued);
    return;
  }
  br.RecordFailure(now, kBreakerTripAfter, kBreakerOpenNs);

  if (status == OpStatus::kUnavailable) {
    // The placement evaporated under us (an eviction raced the op).
    Region& r = t.regions[slot];
    if (r.id == rid && r.remote) {
      t.region_losses->Inc();
      RequestPlacement(t, slot);
    }
    t.ops_failed->Inc();
    ScheduleNext(t);
    return;
  }

  t.ops_busy->Inc();
  if (attempt + 1 < kMaxAttempts && t.retry.TryWithdraw()) {
    const uint32_t tenant = t.id;
    sim.At(now + kRetryBackoffNs * (attempt + 1),
           [this, tenant, slot, is_read, issued, attempt] {
             Tenant& tt = tenants_[tenant];
             Dispatch(tt, slot, is_read, issued, attempt + 1);
           });
    return;
  }
  t.ops_failed->Inc();
  ScheduleNext(t);
}

void Fleet::Complete(Tenant& t, sim::SimTime issued) {
  sim::Simulation& sim = engine_->partition(t.home_rack);
  const uint64_t lat = sim.Now() - issued;
  t.latency->Add(lat);
  t.ops_ok->Inc();
  if (lat > kClasses[t.cls].slo_ns) t.slo_violations->Inc();
  ScheduleNext(t);
}

void Fleet::ScheduleNext(Tenant& t) {
  sim::Simulation& sim = engine_->partition(t.home_rack);
  const TenantClass& cls = kClasses[t.cls];
  // Dithered think time keeps a tenant's streams from phase-locking.
  const sim::SimTime think = cls.think_ns / 2 + t.rng.Uniform(cls.think_ns);
  const uint32_t tenant = t.id;
  sim.At(sim.Now() + think, [this, tenant] { IssueFresh(tenants_[tenant]); });
}

overload::CircuitBreaker& Fleet::BreakerFor(Tenant& t, net::ServerId s) {
  for (auto& [id, br] : t.breakers) {
    if (id == s) return br;
  }
  t.breakers.emplace_back(s, overload::CircuitBreaker{});
  return t.breakers.back().second;
}

void Fleet::Run() { engine_->RunUntil(end_); }

std::string Fleet::MetricsSnapshot() {
  std::string out;
  for (auto& rack : racks_) {
    out += rack->metrics->ToJson();
    out += '\n';
  }
  return out;
}

Fleet::Summary Fleet::Summarize() const {
  Summary s;
  std::vector<Histogram> by_class(kNumClasses);
  s.classes.resize(kNumClasses);
  for (uint32_t c = 0; c < kNumClasses; c++) {
    s.classes[c].name = kClasses[c].name;
  }
  for (const Tenant& t : tenants_) {
    ClassStat& cs = s.classes[t.cls];
    const uint64_t ok = t.ops_ok->Value();
    const uint64_t slo = t.slo_violations->Value();
    cs.ops_ok += ok;
    cs.slo_violations += slo;
    s.ops_ok += ok;
    s.slo_violations += slo;
    s.ops_rejected += t.ops_rejected->Value();
    s.ops_busy += t.ops_busy->Value();
    s.ops_failed += t.ops_failed->Value();
    s.ops_shed += t.ops_shed->Value();
    s.ops_local += t.ops_local->Value();
    s.region_losses += t.region_losses->Value();
    by_class[t.cls].Merge(t.latency->SnapshotCumulative());
  }
  for (uint32_t c = 0; c < kNumClasses; c++) {
    s.classes[c].p50_ns = by_class[c].Percentile(0.5);
    s.classes[c].p99_ns = by_class[c].Percentile(0.99);
  }

  std::vector<ClusterSample> all_samples;
  for (const auto& rack : racks_) {
    s.vms_started += rack->trace->vms_started();
    s.evictions += rack->evictions->Value();
    const auto& sm = rack->trace->samples();
    all_samples.insert(all_samples.end(), sm.begin(), sm.end());
    const auto& sd = rack->trace->stranding_durations();
    s.stranding_durations_ns.insert(s.stranding_durations_ns.end(),
                                    sd.begin(), sd.end());
  }
  s.median_stranded_fraction = WorkloadTrace::MedianStranded(all_samples);
  s.placements = manager_.placements->Value();
  s.place_failures = manager_.place_failures->Value();

  // Fig. 1-style per-server reachable stranded memory within 3
  // switches (= the server's pod), computed from per-rack allocators.
  const uint32_t nr = static_cast<uint32_t>(topo_.num_racks());
  const uint32_t rpp = static_cast<uint32_t>(opts_.racks_per_pod);
  std::vector<uint64_t> rack_stranded(nr, 0);
  std::vector<std::vector<uint64_t>> contrib(nr);
  for (uint32_t r = 0; r < nr; r++) {
    contrib[r].resize(opts_.servers_per_rack, 0);
    for (int i = 0; i < opts_.servers_per_rack; i++) {
      const PhysicalServer& ps = racks_[r]->alloc->server(
          static_cast<net::ServerId>(i));
      if (ps.stranded()) contrib[r][i] = ps.memory_free();
      rack_stranded[r] += contrib[r][i];
    }
  }
  std::vector<uint64_t> pod_stranded(opts_.pods, 0);
  for (uint32_t r = 0; r < nr; r++) {
    pod_stranded[r / rpp] += rack_stranded[r];
  }
  for (uint32_t r = 0; r < nr; r++) {
    for (int i = 0; i < opts_.servers_per_rack; i++) {
      s.reachable_stranded_3hop.push_back(pod_stranded[r / rpp] -
                                          contrib[r][i]);
    }
  }
  std::sort(s.reachable_stranded_3hop.begin(),
            s.reachable_stranded_3hop.end());
  return s;
}

}  // namespace redy::cluster
