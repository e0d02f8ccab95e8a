#include "rdma/nic.h"

#include <algorithm>

#include <string>

#include "common/logging.h"
#include "rdma/queue_pair.h"
#include "telemetry/telemetry.h"

namespace redy::rdma {

Nic::Nic(sim::Simulation* sim, Fabric* fabric, net::ServerId server)
    : sim_(sim), fabric_(fabric), server_(server), tx_link_(&fabric->params()) {}

Nic::~Nic() = default;

const net::FabricParams& Nic::params() const { return fabric_->params(); }

MemoryRegion* Nic::RegisterMemory(uint64_t bytes) {
  const uint32_t key = next_key_++;
  auto mr = std::make_unique<MemoryRegion>(this, bytes, key);
  MemoryRegion* out = mr.get();
  regions_.emplace(key, std::move(mr));
  registered_bytes_ += bytes;
  return out;
}

void Nic::DeregisterMemory(MemoryRegion* mr) {
  if (mr == nullptr) return;
  auto it = regions_.find(mr->remote_key().rkey);
  if (it == regions_.end()) return;
  mr->Invalidate();
  registered_bytes_ -= mr->size();
  // Keep the storage alive briefly: in-flight simulated DMA events may
  // still hold raw pointers into the buffer. Invalidation already makes
  // every *new* remote access fail; after a grace period of simulated
  // time no event can reference the region and it is freed (bounding
  // memory across long runs that churn many caches).
  constexpr sim::SimTime kGraceNs = 50 * kMillisecond;
  retired_regions_.emplace_back(sim_->Now(), std::move(it->second));
  regions_.erase(it);
  while (!retired_regions_.empty() &&
         retired_regions_.front().first + kGraceNs < sim_->Now()) {
    retired_regions_.pop_front();
  }
}

MemoryRegion* Nic::Resolve(uint32_t rkey) const {
  auto it = regions_.find(rkey);
  return it == regions_.end() || !it->second->valid() ? nullptr
                                                      : it->second.get();
}

QueuePair* Nic::CreateQueuePair(uint32_t max_depth) {
  max_depth = std::min(max_depth, params().max_queue_depth);
  auto qp = std::make_unique<QueuePair>(this, max_depth);
  QueuePair* out = qp.get();
  out->trace_id_ = fabric_->NextQpTraceId();
  qps_.push_back(out);
  owned_qps_.push_back(std::move(qp));
  return out;
}

void Nic::CountWqePosted() {
  telemetry::Telemetry* tel = fabric_->telemetry();
  if (tel == nullptr) return;
  if (wqe_posted_ == nullptr) {
    wqe_posted_ = tel->metrics().GetCounter(
        "rdma.wqe_posted", {{"server", std::to_string(server_)}});
  }
  wqe_posted_->Inc();
}

void Nic::CountWqeCompleted(bool ok) {
  telemetry::Telemetry* tel = fabric_->telemetry();
  if (tel == nullptr) return;
  if (wqe_completed_ == nullptr) {
    const telemetry::Labels labels{{"server", std::to_string(server_)}};
    wqe_completed_ = tel->metrics().GetCounter("rdma.wqe_completed", labels);
    wqe_errors_ = tel->metrics().GetCounter("rdma.wqe_errors", labels);
  }
  wqe_completed_->Inc();
  if (!ok) wqe_errors_->Inc();
}

void Nic::CountProtectionError() {
  telemetry::Telemetry* tel = fabric_->telemetry();
  if (tel == nullptr) return;
  if (protection_errors_ == nullptr) {
    protection_errors_ = tel->metrics().GetCounter(
        "rdma.protection_errors", {{"server", std::to_string(server_)}});
  }
  protection_errors_->Inc();
}

void Nic::CountChainPosted() {
  telemetry::Telemetry* tel = fabric_->telemetry();
  if (tel == nullptr) return;
  if (chain_posted_ == nullptr) {
    chain_posted_ = tel->metrics().GetCounter(
        "rdma.chain_posted", {{"server", std::to_string(server_)}});
  }
  chain_posted_->Inc();
}

void Nic::CountChainHop() {
  telemetry::Telemetry* tel = fabric_->telemetry();
  if (tel == nullptr) return;
  if (chain_hops_ == nullptr) {
    chain_hops_ = tel->metrics().GetCounter(
        "rdma.chain_hops", {{"server", std::to_string(server_)}});
  }
  chain_hops_->Inc();
}

void Nic::CountChainAborted() {
  telemetry::Telemetry* tel = fabric_->telemetry();
  if (tel == nullptr) return;
  if (chain_aborted_ == nullptr) {
    chain_aborted_ = tel->metrics().GetCounter(
        "rdma.chain_aborted", {{"server", std::to_string(server_)}});
  }
  chain_aborted_->Inc();
}

void Nic::DestroyQueuePair(QueuePair* qp) {
  if (qp == nullptr) return;
  qp->Break();
  if (qp->peer() != nullptr) qp->peer()->Break();
  qps_.erase(std::remove(qps_.begin(), qps_.end(), qp), qps_.end());
  // The owned_qps_ entry is retained until NIC teardown so in-flight
  // events holding the pointer stay valid (they observe broken()).
}

sim::SimTime Nic::ReleaseTime(sim::SimTime t) const {
  FaultHooks* hooks = fabric_->fault_hooks();
  return hooks == nullptr ? t : hooks->ReleaseTimeNs(server_, t);
}

void Nic::Fail() {
  if (failed_) return;
  failed_ = true;
  if (telemetry::Telemetry* tel = fabric_->telemetry();
      tel != nullptr && tel->tracer().enabled()) {
    telemetry::SpanTracer& tr = tel->tracer();
    tr.Instant(fabric_->FabricTraceTrack(tr), "nic_failed", "fabric",
               sim_->Now(), {"server", server_});
  }
  for (QueuePair* qp : qps_) {
    qp->Break();
    if (qp->peer() != nullptr) qp->peer()->Break();
  }
  for (auto& [key, mr] : regions_) mr->Invalidate();
}

Fabric::Fabric(sim::Simulation* sim, net::Topology topology,
               net::FabricParams params)
    : sim_(sim), topology_(topology), params_(params) {}

uint32_t Fabric::FabricTraceTrack(telemetry::SpanTracer& tracer) {
  if (fabric_trace_track_ == 0) {
    fabric_trace_track_ = tracer.NewTrack("rdma", "fabric");
  }
  return fabric_trace_track_;
}

Nic* Fabric::NicAt(net::ServerId server) {
  auto it = nics_.find(server);
  if (it != nics_.end()) return it->second.get();
  REDY_CHECK(static_cast<int>(server) < topology_.num_servers());
  auto nic = std::make_unique<Nic>(sim_, this, server);
  Nic* out = nic.get();
  nics_.emplace(server, std::move(nic));
  return out;
}

}  // namespace redy::rdma
