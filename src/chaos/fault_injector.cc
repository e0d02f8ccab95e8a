#include "chaos/fault_injector.h"

#include <algorithm>

#include "common/logging.h"
#include "telemetry/telemetry.h"

namespace redy::chaos {

FaultInjector::FaultInjector(sim::Simulation* sim, rdma::Fabric* fabric,
                             Options opts)
    : sim_(sim), fabric_(fabric), opts_(opts), rng_(opts.seed) {}

void FaultInjector::Install() { fabric_->set_fault_hooks(this); }

net::ServerId FaultInjector::PickServer() {
  REDY_CHECK(!opts_.servers.empty());
  return opts_.servers[rng_.Uniform(opts_.servers.size())];
}

uint64_t FaultInjector::PickDuration() {
  return rng_.UniformRange(opts_.min_window_ns, opts_.max_window_ns);
}

sim::SimTime FaultInjector::PickStart() {
  return opts_.start + (opts_.horizon == 0 ? 0 : rng_.Uniform(opts_.horizon));
}

void FaultInjector::Arm() {
  for (int i = 0; i < opts_.degrade_windows; i++) {
    AddDegrade(opts_.client, PickServer(), PickStart(), PickDuration(),
               opts_.degrade_extra_ns);
  }
  for (int i = 0; i < opts_.lossy_windows; i++) {
    AddLossy(opts_.client, PickServer(), PickStart(), PickDuration(),
             opts_.loss_p);
  }
  for (int i = 0; i < opts_.flap_windows; i++) {
    AddFlap(opts_.client, PickServer(), PickStart(), PickDuration());
  }
  for (int i = 0; i < opts_.stall_windows; i++) {
    AddStall(PickServer(), PickStart(), PickDuration());
  }
  Install();
}

void FaultInjector::AddDegrade(net::ServerId a, net::ServerId b,
                               sim::SimTime start, uint64_t duration_ns,
                               uint64_t extra_ns) {
  const DegradeWindow w{start, start + duration_ns, extra_ns};
  degrades_[PairKey(a, b)].push_back(w);
  degrades_[PairKey(b, a)].push_back(w);
  last_fault_end_ = std::max(last_fault_end_, w.end);
  TraceWindow("degrade", w.start, w.end, {"src", a}, {"dst", b});
}

void FaultInjector::AddLossyWindow(net::ServerId a, net::ServerId b,
                                   sim::SimTime start, uint64_t duration_ns,
                                   double p) {
  const LossWindow w{start, start + duration_ns, p};
  losses_[PairKey(a, b)].push_back(w);
  losses_[PairKey(b, a)].push_back(w);
  last_fault_end_ = std::max(last_fault_end_, w.end);
}

void FaultInjector::AddLossy(net::ServerId a, net::ServerId b,
                             sim::SimTime start, uint64_t duration_ns,
                             double p) {
  AddLossyWindow(a, b, start, duration_ns, p);
  TraceWindow("lossy", start, start + duration_ns, {"src", a}, {"dst", b});
}

void FaultInjector::AddFlap(net::ServerId a, net::ServerId b,
                            sim::SimTime start, uint64_t duration_ns) {
  AddLossyWindow(a, b, start, duration_ns, 1.0);
  TraceWindow("flap", start, start + duration_ns, {"src", a}, {"dst", b});
}

void FaultInjector::AddStall(net::ServerId server, sim::SimTime start,
                             uint64_t duration_ns) {
  const StallWindow w{start, start + duration_ns};
  stalls_[server].push_back(w);
  last_fault_end_ = std::max(last_fault_end_, w.end);
  TraceWindow("stall", w.start, w.end, {"server", server}, {});
}

telemetry::SpanTracer* FaultInjector::ActiveTracer() const {
  telemetry::Telemetry* tel = fabric_->telemetry();
  if (tel == nullptr || !tel->tracer().enabled()) return nullptr;
  return &tel->tracer();
}

void FaultInjector::TraceWindow(const char* name, sim::SimTime start,
                                sim::SimTime end, telemetry::TraceArg a0,
                                telemetry::TraceArg a1) {
  telemetry::SpanTracer* tr = ActiveTracer();
  if (tr == nullptr) return;
  if (trace_track_ == 0) trace_track_ = tr->NewTrack("chaos", "faults");
  tr->Instant(trace_track_, name, "fault", start, a0, a1);
  const telemetry::SpanId id = tr->NextId();
  tr->AsyncBegin(trace_track_, name, "fault", id, start, a0, a1);
  tr->AsyncEnd(trace_track_, name, "fault", id, end);
}

uint64_t FaultInjector::ExtraLatencyNs(net::ServerId src, net::ServerId dst) {
  const sim::SimTime now = sim_->Now();
  uint64_t extra = 0;
  auto it = degrades_.find(PairKey(src, dst));
  if (it != degrades_.end()) {
    for (const DegradeWindow& w : it->second) {
      if (now >= w.start && now < w.end) {
        extra += w.extra_ns;
        injected_delays_++;
        if (rng_.Bernoulli(opts_.spike_p)) {
          extra += opts_.spike_ns;
          injected_spikes_++;
        }
      }
    }
  }
  return extra;
}

bool FaultInjector::WqeError(net::ServerId src, net::ServerId dst) {
  const sim::SimTime now = sim_->Now();
  auto it = losses_.find(PairKey(src, dst));
  if (it == losses_.end()) return false;
  for (const LossWindow& w : it->second) {
    if (now >= w.start && now < w.end && rng_.Bernoulli(w.p)) {
      injected_errors_++;
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        if (trace_track_ == 0) trace_track_ = tr->NewTrack("chaos", "faults");
        tr->Instant(trace_track_, "injected_error", "fault", now,
                    {"src", src}, {"dst", dst});
      }
      return true;
    }
  }
  return false;
}

sim::SimTime FaultInjector::ReleaseTimeNs(net::ServerId server,
                                          sim::SimTime t) {
  auto it = stalls_.find(server);
  if (it == stalls_.end()) return t;
  // A completion landing inside a stall window is held to the window's
  // end; windows may chain, so keep applying until none covers t.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const StallWindow& w : it->second) {
      if (t >= w.start && t < w.end) {
        t = w.end;
        stall_holds_++;
        moved = true;
      }
    }
  }
  return t;
}

}  // namespace redy::chaos
