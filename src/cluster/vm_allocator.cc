#include "cluster/vm_allocator.h"

#include <algorithm>

#include "common/logging.h"

namespace redy::cluster {

VmAllocator::VmAllocator(sim::Simulation* sim, const net::Topology* topology,
                         uint32_t cores_per_server,
                         uint64_t memory_per_server,
                         sim::SimTime reclaim_notice)
    : sim_(sim), topology_(topology), reclaim_notice_(reclaim_notice) {
  servers_.resize(topology->num_servers());
  for (auto& s : servers_) {
    s.cores_total = cores_per_server;
    s.memory_total = memory_per_server;
  }
}

Result<Vm> VmAllocator::Allocate(uint32_t cores, uint64_t memory_bytes,
                                 bool spot,
                                 std::optional<net::ServerId> near_server,
                                 int max_hops, bool memory_only,
                                 std::string type_name,
                                 Placement placement,
                                 const std::vector<net::ServerId>* avoid_nodes) {
  if (memory_only && cores != 0) {
    return Status::InvalidArgument("memory-only VM cannot have cores");
  }
  if (memory_bytes == 0) {
    return Status::InvalidArgument("VM needs memory");
  }

  // Candidate scan. Best fit packs by leftover cores; spread is a
  // rotating first-fit. For memory-only reservations, only stranded
  // servers qualify, preferring the most leftover memory.
  int best = -1;
  int64_t best_score = 0;
  const int n = static_cast<int>(servers_.size());
  for (int scan = 0; scan < n; scan++) {
    const int i = placement == Placement::kSpread
                      ? static_cast<int>((spread_cursor_ + scan) % n)
                      : scan;
    const auto sid = static_cast<net::ServerId>(i);
    if (near_server.has_value()) {
      const int hops = topology_->SwitchHops(*near_server, sid);
      if (hops > max_hops || sid == *near_server) continue;
    }
    const PhysicalServer& s = servers_[i];
    if (s.failed) continue;
    if (avoid_nodes != nullptr &&
        std::find(avoid_nodes->begin(), avoid_nodes->end(), sid) !=
            avoid_nodes->end()) {
      continue;
    }
    if (s.memory_free() < memory_bytes) continue;
    if (memory_only) {
      if (!s.stranded()) continue;
      const int64_t score = static_cast<int64_t>(s.memory_free() / kMiB);
      if (best < 0 || score > best_score) {
        best = i;
        best_score = score;
      }
    } else {
      if (s.cores_free() < cores) continue;
      if (placement == Placement::kSpread) {
        best = i;  // first fit from the rotating cursor
        break;
      }
      int64_t score = static_cast<int64_t>(s.cores_free() - cores);
      if (near_server.has_value()) {
        // Prefer closer servers first, then tight core packing.
        score += 1000 * topology_->SwitchHops(*near_server, sid);
      }
      if (best < 0 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
  }
  if (best < 0) {
    return Status::ResourceExhausted("no server fits the request");
  }
  if (placement == Placement::kSpread) {
    spread_cursor_ = static_cast<size_t>(best) + 1;
  }

  PhysicalServer& s = servers_[best];
  s.cores_used += cores;
  s.memory_used += memory_bytes;

  Vm vm;
  vm.id = next_id_++;
  vm.server = static_cast<net::ServerId>(best);
  vm.cores = cores;
  vm.memory_bytes = memory_bytes;
  vm.spot = spot;
  vm.memory_only = memory_only;
  vm.type_name = std::move(type_name);
  vm.created_at = sim_->Now();
  vms_.emplace(vm.id, vm);
  return vm;
}

void VmAllocator::Free(VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) return;
  PhysicalServer& s = servers_[it->second.server];
  REDY_CHECK(s.cores_used >= it->second.cores);
  REDY_CHECK(s.memory_used >= it->second.memory_bytes);
  s.cores_used -= it->second.cores;
  s.memory_used -= it->second.memory_bytes;
  vms_.erase(it);
  // Capacity appeared: wake every waiter, deferred through the event
  // queue so callbacks may freely Allocate/Free without re-entering us.
  if (!waiters_.empty()) {
    auto fired = std::move(waiters_);
    waiters_.clear();
    for (auto& cb : fired) sim_->After(0, std::move(cb));
  }
}

void VmAllocator::WaitForCapacity(std::function<void()> cb) {
  waiters_.push_back(std::move(cb));
}

Status VmAllocator::Reclaim(VmId id) {
  auto it = vms_.find(id);
  if (it == vms_.end()) return Status::NotFound("unknown VM");
  if (!it->second.spot) {
    return Status::FailedPrecondition("only spot VMs are reclaimable");
  }
  const Vm vm = it->second;
  const sim::SimTime deadline = sim_->Now() + reclaim_notice_;
  if (reclaim_handler_) reclaim_handler_(vm, deadline);
  sim_->At(deadline, [this, id] { Free(id); });
  return Status::OK();
}

void VmAllocator::FailServer(net::ServerId server) {
  servers_[server].failed = true;
  std::vector<VmId> victims = VmsOn(server);
  for (VmId id : victims) {
    auto it = vms_.find(id);
    if (it == vms_.end()) continue;
    const Vm vm = it->second;
    Free(id);
    if (reclaim_handler_) reclaim_handler_(vm, sim_->Now());
  }
}

const Vm* VmAllocator::Find(VmId id) const {
  auto it = vms_.find(id);
  return it == vms_.end() ? nullptr : &it->second;
}

uint64_t VmAllocator::TotalMemory() const {
  uint64_t total = 0;
  for (const auto& s : servers_) total += s.memory_total;
  return total;
}

uint64_t VmAllocator::UnallocatedMemory() const {
  uint64_t total = 0;
  for (const auto& s : servers_) total += s.memory_free();
  return total;
}

uint64_t VmAllocator::StrandedMemory() const {
  uint64_t total = 0;
  for (const auto& s : servers_) {
    if (s.stranded()) total += s.memory_free();
  }
  return total;
}

uint64_t VmAllocator::ReachableStranded(net::ServerId from,
                                        int max_hops) const {
  uint64_t total = 0;
  const int n = static_cast<int>(servers_.size());
  for (int i = 0; i < n; i++) {
    const auto sid = static_cast<net::ServerId>(i);
    if (sid == from) continue;
    if (topology_->SwitchHops(from, sid) > max_hops) continue;
    if (servers_[i].stranded()) total += servers_[i].memory_free();
  }
  return total;
}

std::vector<VmId> VmAllocator::VmsOn(net::ServerId server) const {
  std::vector<VmId> out;
  for (const auto& [id, vm] : vms_) {
    if (vm.server == server) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace redy::cluster
