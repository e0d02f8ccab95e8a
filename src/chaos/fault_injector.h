#ifndef REDY_CHAOS_FAULT_INJECTOR_H_
#define REDY_CHAOS_FAULT_INJECTOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "net/topology.h"
#include "rdma/fault_hooks.h"
#include "rdma/nic.h"
#include "sim/simulation.h"
#include "telemetry/trace.h"

namespace redy::chaos {

/// Deterministic, seed-driven fault injector. Implements the
/// rdma::FaultHooks interface the fabric consults on every transfer, so
/// all faults unfold in simulated time and a given (topology, workload,
/// seed) triple reproduces the exact same fault schedule byte for byte.
///
/// Four fault classes, all expressed as time windows:
///  - degrade: a directed link adds fixed latency, plus occasional
///    larger spikes (congested or misbehaving port, gray failure);
///  - lossy:   WQEs across a directed link error with probability p
///    (corrupting link, retry-exhausted RC transport);
///  - flap:    loss with p = 1 — the link is down, the NIC is not;
///  - stall:   a NIC delivers no completions until the window closes
///    (classic gray failure: the host is up, the datapath is wedged).
///
/// Windows can be placed explicitly (Add*) for targeted tests, or
/// generated pseudo-randomly from a seed over a horizon (Arm) for soak
/// tests. The injector never touches server state: everything the
/// client observes — timeouts, error completions, slow responses —
/// emerges from the hooks.
class FaultInjector : public rdma::FaultHooks {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Window generation span: faults start in [start, start + horizon).
    sim::SimTime start = 0;
    sim::SimTime horizon = 0;
    /// Endpoints: faults are placed on links between `client` and a
    /// random member of `servers`, and stalls on random `servers`.
    net::ServerId client = 0;
    std::vector<net::ServerId> servers;
    /// How many windows of each class Arm() generates.
    int degrade_windows = 2;
    int lossy_windows = 2;
    int flap_windows = 1;
    int stall_windows = 1;
    /// Window durations are uniform in [min_window_ns, max_window_ns].
    uint64_t min_window_ns = 50 * kMicrosecond;
    uint64_t max_window_ns = 500 * kMicrosecond;
    /// Degrade windows: fixed extra one-way latency plus rare spikes.
    uint64_t degrade_extra_ns = 2 * kMicrosecond;
    double spike_p = 0.02;
    uint64_t spike_ns = 50 * kMicrosecond;
    /// Loss probability inside a lossy window.
    double loss_p = 0.05;
  };

  FaultInjector(sim::Simulation* sim, rdma::Fabric* fabric, Options opts);

  /// Installs this injector as the fabric's fault hooks.
  void Install();

  /// Generates the pseudo-random fault schedule from the seed and
  /// installs the hooks. Idempotent windows: calling twice doubles them.
  void Arm();

  /// Explicit window placement (both directions for link faults).
  void AddDegrade(net::ServerId a, net::ServerId b, sim::SimTime start,
                  uint64_t duration_ns, uint64_t extra_ns);
  void AddLossy(net::ServerId a, net::ServerId b, sim::SimTime start,
                uint64_t duration_ns, double p);
  void AddFlap(net::ServerId a, net::ServerId b, sim::SimTime start,
               uint64_t duration_ns);
  void AddStall(net::ServerId server, sim::SimTime start,
                uint64_t duration_ns);

  // rdma::FaultHooks implementation.
  uint64_t ExtraLatencyNs(net::ServerId src, net::ServerId dst) override;
  bool WqeError(net::ServerId src, net::ServerId dst) override;
  sim::SimTime ReleaseTimeNs(net::ServerId server, sim::SimTime t) override;

  /// Simulated time after which no injected fault is active. Soak tests
  /// drive traffic past this point to assert full recovery.
  sim::SimTime last_fault_end() const { return last_fault_end_; }

  /// Injection counters (diagnostics / test assertions).
  uint64_t injected_errors() const { return injected_errors_; }
  uint64_t injected_spikes() const { return injected_spikes_; }
  uint64_t injected_delays() const { return injected_delays_; }
  uint64_t stall_holds() const { return stall_holds_; }

  const Options& options() const { return opts_; }

 private:
  struct DegradeWindow {
    sim::SimTime start;
    sim::SimTime end;
    uint64_t extra_ns;
  };
  struct LossWindow {
    sim::SimTime start;
    sim::SimTime end;
    double p;
  };
  struct StallWindow {
    sim::SimTime start;
    sim::SimTime end;
  };

  static uint64_t PairKey(net::ServerId src, net::ServerId dst) {
    return (static_cast<uint64_t>(src) << 32) | static_cast<uint64_t>(dst);
  }
  net::ServerId PickServer();
  uint64_t PickDuration();
  sim::SimTime PickStart();
  void AddLossyWindow(net::ServerId a, net::ServerId b, sim::SimTime start,
                      uint64_t duration_ns, double p);
  /// Emits the window onto the "chaos" trace lane (instant at the start
  /// plus a [start, end) span) when tracing is enabled; no-op otherwise.
  void TraceWindow(const char* name, sim::SimTime start, sim::SimTime end,
                   telemetry::TraceArg a0, telemetry::TraceArg a1);
  /// The fabric's tracer when telemetry is installed and enabled.
  telemetry::SpanTracer* ActiveTracer() const;

  sim::Simulation* sim_;
  rdma::Fabric* fabric_;
  Options opts_;
  Rng rng_;

  std::unordered_map<uint64_t, std::vector<DegradeWindow>> degrades_;
  std::unordered_map<uint64_t, std::vector<LossWindow>> losses_;
  std::unordered_map<net::ServerId, std::vector<StallWindow>> stalls_;

  sim::SimTime last_fault_end_ = 0;
  telemetry::TrackId trace_track_ = 0;
  uint64_t injected_errors_ = 0;
  uint64_t injected_spikes_ = 0;
  uint64_t injected_delays_ = 0;
  uint64_t stall_holds_ = 0;
};

}  // namespace redy::chaos

#endif  // REDY_CHAOS_FAULT_INJECTOR_H_
