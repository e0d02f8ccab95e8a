#ifndef REDY_TRANSPORT_LOOPBACK_H_
#define REDY_TRANSPORT_LOOPBACK_H_

#include <functional>
#include <memory>
#include <utility>

#include "cluster/vm_allocator.h"
#include "net/fabric_params.h"
#include "net/topology.h"
#include "redy/cache_client.h"
#include "redy/cache_manager.h"
#include "redy/cost_model.h"
#include "sim/simulation.h"
#include "telemetry/telemetry.h"
#include "transport/socket_fabric.h"
#include "transport/wall_clock.h"

namespace redy::transport {

/// The real-transport counterpart of redy::Testbed: the *identical*
/// stack — VmAllocator, CacheManager, CacheServer, CacheClient — built
/// over a SocketFabric and driven by a WallClockDriver, all inside one
/// process. Queue pairs ride AF_UNIX socketpairs served by epoll
/// workers; pollers park in epoll_wait and wake on completions; modeled
/// CPU costs become wall-clock scheduling floors. This is the harness
/// the backend-parameterized tests and the real-transport bench run on
/// (DESIGN.md §13). The two-process deployment of the same stack lives
/// in examples/redy_server_main.cc + redy_client_main.cc.
///
/// Threading contract: everything in the Redy stack is loop-thread
/// state. Test/bench threads reach it only through Call(), which runs
/// the functor on the loop and blocks for the result.
struct LoopbackRigOptions {
  int pods = 1;
  int racks_per_pod = 1;
  int servers_per_rack = 4;
  uint32_t cores_per_server = 64;
  uint64_t memory_per_server = 8 * kGiB;
  net::ServerId app_node = 0;
  sim::SimTime reclaim_notice = 30 * kSecond;
  net::FabricParams fabric;
  CostModel costs;
  CacheClient::Options client;
  /// Epoll workers serving the socket backend.
  int workers = 2;
};

class LoopbackRig {
 public:
  explicit LoopbackRig(LoopbackRigOptions options = {});
  ~LoopbackRig();

  LoopbackRig(const LoopbackRig&) = delete;
  LoopbackRig& operator=(const LoopbackRig&) = delete;

  WallClockDriver& driver() { return *driver_; }
  sim::Simulation& sim() { return sim_; }
  SocketFabric& fabric() { return *fabric_; }
  cluster::VmAllocator& allocator() { return *allocator_; }
  CacheManager& manager() { return *manager_; }
  CacheClient& client() { return *client_; }
  telemetry::Telemetry& telemetry() { return *telemetry_; }
  const LoopbackRigOptions& options() const { return options_; }

  /// Runs `fn` on the loop thread, blocking for its result.
  template <typename F>
  auto Call(F&& fn) {
    return driver_->Call(std::forward<F>(fn));
  }

  /// Polls `pred` on the loop until it returns true or `timeout_ms` of
  /// wall time elapse. Returns whether the predicate turned true.
  bool AwaitTrue(std::function<bool()> pred, uint64_t timeout_ms = 10'000);

 private:
  LoopbackRigOptions options_;
  sim::Simulation sim_;
  std::unique_ptr<WallClockDriver> driver_;
  std::unique_ptr<telemetry::Telemetry> telemetry_;
  std::unique_ptr<SocketFabric> fabric_;
  std::unique_ptr<cluster::VmAllocator> allocator_;
  std::unique_ptr<CacheManager> manager_;
  std::unique_ptr<CacheClient> client_;
};

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_LOOPBACK_H_
