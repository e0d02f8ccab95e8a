#ifndef REDY_TELEMETRY_TELEMETRY_H_
#define REDY_TELEMETRY_TELEMETRY_H_

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace redy::telemetry {

/// One telemetry domain: a metrics registry plus a span tracer sharing
/// the simulation clock. The Testbed owns one and threads it through
/// the fabric (rdma::Fabric::set_telemetry) and the cache client
/// (CacheClient::Options::telemetry); components reach it from there.
/// Metrics are always live (atomic counters cost nothing measurable);
/// the tracer records only once Enable() is called.
class Telemetry {
 public:
  explicit Telemetry(sim::Simulation* sim,
                     SpanTracer::Options trace_opts = {})
      : metrics_(sim), tracer_(sim, trace_opts) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& metrics() { return metrics_; }
  SpanTracer& tracer() { return tracer_; }

 private:
  MetricsRegistry metrics_;
  SpanTracer tracer_;
};

}  // namespace redy::telemetry

#endif  // REDY_TELEMETRY_TELEMETRY_H_
