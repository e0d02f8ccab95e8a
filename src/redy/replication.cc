// Cache replication: the Section 6.2 alternative to migration for
// caches that cannot tolerate a migration pause. Every region keeps a
// replica on a different VM; writes are applied to both copies, reads
// are served by the primary. Losing a VM promotes replicas instantly
// (no copy, no data loss) and degraded regions re-replicate in the
// background through a bounded-retry repair loop that preserves
// anti-affinity and parks on the allocator's capacity waitlist when
// the cluster is full.

#include <algorithm>

#include "common/logging.h"
#include "redy/cache_client.h"

namespace redy {

namespace {

/// Allocation or transfer attempts before a degraded region gives up
/// repairing (it stays degraded; the next loss retries).
constexpr uint32_t kRepairMaxAttempts = 8;
/// Backoff base between repair attempts (doubles per attempt, capped at
/// 100 ms; allocation waits are also woken by allocator capacity).
constexpr uint64_t kRepairBackoffNs = 100 * kMicrosecond;

}  // namespace

Result<CacheClient::CacheId> CacheClient::CreateReplicated(
    uint64_t capacity, const RdmaConfig& cfg, uint32_t record_bytes,
    bool spot) {
  auto id_or = CreateWithConfig(capacity, cfg, record_bytes, spot);
  if (!id_or.ok()) return id_or;
  CacheEntry* cache = FindCache(*id_or);

  // Anti-affinity: replicas must survive the loss of any physical
  // server hosting a primary.
  std::vector<net::ServerId> primary_nodes;
  for (const auto& vr : cache->regions) {
    primary_nodes.push_back(vr.placement.node);
  }
  auto rep_or = manager_->AllocateWithConfig(
      cache->regions.size() * cache->region_bytes, cfg, record_bytes, spot,
      node_, cache->region_bytes, 5, &primary_nodes,
      options_.max_regions_per_vm);
  if (!rep_or.ok()) {
    Delete(*id_or);
    return rep_or.status();
  }
  REDY_CHECK(rep_or->regions.size() == cache->regions.size());
  for (size_t i = 0; i < cache->regions.size(); i++) {
    cache->regions[i].replica = rep_or->regions[i];
  }
  cache->price_per_hour += rep_or->price_per_hour;
  cache->replicated = true;
  return id_or;
}

Result<bool> CacheClient::RegionReplicated(CacheId id,
                                           uint32_t vregion) const {
  const CacheEntry* cache = FindCache(id);
  if (cache == nullptr) return Status::NotFound("unknown cache");
  if (vregion >= cache->regions.size()) {
    return Status::OutOfRange("no such region");
  }
  return cache->regions[vregion].replica.has_value();
}

void CacheClient::FailoverReplicated(CacheEntry& cache, cluster::VmId vm,
                                     sim::SimTime deadline) {
  std::vector<uint32_t> orphaned;  // primary lost with no replica left
  for (uint32_t i = 0; i < cache.regions.size(); i++) {
    VRegion& vr = cache.regions[i];
    bool degraded = false;
    if (vr.replica.has_value() && vr.replica->vm_id == vm) {
      vr.replica.reset();
      degraded = true;
    }
    if (vr.placement.vm_id == vm) {
      if (vr.replica.has_value()) {
        // Instant promotion: the replica holds every acknowledged
        // write, so reads continue without a pause or a copy.
        vr.placement = *vr.replica;
        vr.replica.reset();
        degraded = true;
        if (telemetry::SpanTracer* tr = ActiveTracer()) {
          tr->Instant(RecoveryTrack(*tr), "failover", "recovery", sim_->Now(),
                      {"cache", cache.id}, {"vregion", i});
        }
      } else {
        orphaned.push_back(i);
      }
    }
    if (degraded && !vr.repairing) {
      RepairReplica(&cache, i);
    }
  }
  if (!orphaned.empty()) {
    // Both copies gone (or the cache degraded before this loss): fall
    // back to the migration path against the real loss deadline — the
    // notice window is still copy time, not forfeit.
    (void)MigrateRegions(cache.id, orphaned, deadline);
  }
}

void CacheClient::RepairReplica(CacheEntry* cache, uint32_t vregion) {
  VRegion& vr = cache->regions[vregion];
  vr.repairing = true;
  cache->ctr.repairs_started->Inc();
  pending_repairs_++;
  gauge_pending_recoveries_->Set(static_cast<int64_t>(PendingRecoveries()));
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    vr.repair_span = tr->NextId();
    tr->AsyncBegin(RecoveryTrack(*tr), "repair", "recovery", vr.repair_span,
                   sim_->Now(), {"cache", cache->id}, {"vregion", vregion});
  }
  ScheduleRepair(cache->id, vregion, /*attempt=*/0, /*delay_ns=*/0);
}

void CacheClient::EndRepairSpan(VRegion& vr) {
  if (vr.repair_span == 0) return;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    tr->AsyncEnd(RecoveryTrack(*tr), "repair", "recovery", vr.repair_span,
                 sim_->Now());
  }
  vr.repair_span = 0;
}

void CacheClient::ScheduleRepair(CacheId id, uint32_t vregion,
                                 uint32_t attempt, uint64_t delay_ns) {
  if (delay_ns == 0) {
    RepairAttempt(id, vregion, attempt);
    return;
  }
  // Fire on whichever comes first: the backoff timer or the allocator
  // reporting freed capacity. The guard makes the pair one-shot.
  auto fired = std::make_shared<bool>(false);
  auto once = [this, id, vregion, attempt, fired] {
    if (*fired) return;
    *fired = true;
    RepairAttempt(id, vregion, attempt);
  };
  sim_->After(delay_ns, once);
  manager_->allocator()->WaitForCapacity(once);
}

void CacheClient::RepairDone(VRegion* vr) {
  if (vr != nullptr) EndRepairSpan(*vr);
  REDY_CHECK(pending_repairs_ > 0);
  pending_repairs_--;
  gauge_pending_recoveries_->Set(static_cast<int64_t>(PendingRecoveries()));
}

void CacheClient::RetryRepair(CacheEntry& cache, uint32_t vregion,
                              uint32_t attempt, const char* what) {
  if (attempt + 1 >= kRepairMaxAttempts) {
    REDY_LOG_ERROR("re-replication %s failed after %u attempts", what,
                   attempt + 1);
    VRegion& vr = cache.regions[vregion];
    vr.repairing = false;  // stays degraded; retried on next loss
    RepairDone(&vr);
    return;
  }
  const uint64_t delay =
      std::min<uint64_t>(kRepairBackoffNs << attempt, 100 * kMillisecond);
  ScheduleRepair(cache.id, vregion, attempt + 1, delay);
}

void CacheClient::RepairAttempt(CacheId id, uint32_t vregion,
                                uint32_t attempt) {
  CacheEntry* cache = FindCache(id);
  if (cache == nullptr || cache->deleted) {
    RepairDone(nullptr);
    return;
  }
  VRegion& vr = cache->regions[vregion];
  if (!vr.repairing || vr.replica.has_value()) {
    // Repaired or re-homed by another path meanwhile.
    RepairDone(&vr);
    return;
  }
  if (vr.migrating) {
    // The region is mid-migration; let that land and try again.
    ScheduleRepair(id, vregion, attempt, kRepairBackoffNs);
    return;
  }

  const std::vector<net::ServerId> avoid = {vr.placement.node};
  auto target_or = manager_->AllocateWithConfig(
      cache->region_bytes, cache->cfg, cache->record_bytes, cache->spot,
      node_, cache->region_bytes, 5, &avoid);
  if (!target_or.ok()) {
    RetryRepair(*cache, vregion, attempt, "allocation");
    return;
  }
  const CacheManager::RegionPlacement target = target_or->regions[0];

  // Writes to the region pause while its bytes are snapshotted, exactly
  // like a region migration; reads stay up (primary untouched). The
  // copy also waits its turn behind deadline-driven migrations — a
  // repair is background work with no force-free attached.
  vr.writes_paused = true;
  const uint64_t bg = next_bg_id_++;
  auto quiesce = std::make_shared<std::unique_ptr<sim::Poller>>();
  background_[bg] = quiesce;
  *quiesce = std::make_unique<sim::Poller>(
      sim_, options_.costs.poll_interval_ns,
      [this, id, vregion, target, attempt, bg,
       q = quiesce.get()]() -> uint64_t {
        CacheEntry* cache = FindCache(id);
        if (cache == nullptr || cache->deleted) {
          (*q)->Stop();
          manager_->ReleaseVm(target.vm_id);
          RepairDone(nullptr);
          sim_->After(0, [this, bg] { background_.erase(bg); });
          return 0;
        }
        VRegion& vr = cache->regions[vregion];
        if (vr.inflight_subops > 0 || !CanStartBackgroundCopy()) {
          return options_.costs.idle_poll_ns;
        }
        (*q)->Stop();
        sim_->After(0, [this, bg] { background_.erase(bg); });

        // The copy runs from offset 0 under its own background entry.
        auto copy = std::make_shared<RegionCopy>();
        copy->owner_bg = next_bg_id_++;
        copy->cache_id = id;
        background_[copy->owner_bg] = copy;
        StartCopy(copy.get(), vr.placement, target,
                  [this, id, vregion, target, attempt, c = copy.get()] {
                    const bool failed = c->failed;
                    background_.erase(c->owner_bg);  // destroys the copy
                    CacheEntry* cache = FindCache(id);
                    if (cache == nullptr || cache->deleted) {
                      manager_->ReleaseVm(target.vm_id);
                      RepairDone(nullptr);
                      return;
                    }
                    VRegion& vr = cache->regions[vregion];
                    vr.writes_paused = false;
                    ReplayParked(*cache, vregion);
                    if (failed) {
                      // Don't leak the fresh VM; retry bounded.
                      manager_->ReleaseVm(target.vm_id);
                      RetryRepair(*cache, vregion, attempt, "transfer");
                      return;
                    }
                    vr.replica = target;
                    vr.repairing = false;
                    cache->ctr.repairs_completed->Inc();
                    RepairDone(&vr);
                    NotifyRecovery("repair");
                  });
        return 200;
      });
  (*quiesce)->Start();
}

}  // namespace redy
