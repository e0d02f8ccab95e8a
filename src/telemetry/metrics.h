#ifndef REDY_TELEMETRY_METRICS_H_
#define REDY_TELEMETRY_METRICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "sim/simulation.h"

namespace redy::telemetry {

/// Metric labels: ordered key/value pairs ({"cache","3"}, {"vm","17"},
/// {"qp","2"}...). Order is part of the metric identity, so callers
/// should use a consistent label order per metric name.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic event counter. The hot path is a single relaxed atomic
/// add: safe against the simulated background pollers (and against real
/// threads under TSan), never reset — readers that need interval
/// deltas subtract a baseline (see CacheClient::ResetStats).
class Counter {
 public:
  void Inc(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// Instantaneous level (in-flight ops, queued jobs, active copies).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(int64_t d) { v_.fetch_sub(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Latency histogram with a cumulative view plus a rotating sim-time
/// window, so "p99 over the last second of simulated time" is readable
/// at any point without post-processing. Rotation is lazy: it happens
/// on the next Add() or window accessor after a window boundary, which
/// keeps Add() allocation-free (Histogram buckets are preallocated and
/// rotation swaps them).
///
/// Thread safety: Add/Reset and the Snapshot accessors may run from any
/// thread concurrently (internal mutex; uncontended in the common case
/// since the data path records from one thread). The reference
/// accessors (cumulative/last_window/current_window) hand out interior
/// state and are for single-threaded use — the simulator, or the
/// application loop of a wall-clock deployment.
class WindowedHistogram {
 public:
  WindowedHistogram(sim::Simulation* sim, sim::SimTime window_ns);

  void Add(uint64_t value_ns);
  /// Clears both the cumulative view and the windows (per-cache stats
  /// reset; registry counters are never cleared, but latency quantiles
  /// are only meaningful per measurement interval).
  void Reset();

  const Histogram& cumulative() const { return cumulative_; }
  /// The last fully completed window (empty if the previous window had
  /// no samples or no window has completed yet).
  const Histogram& last_window();
  /// The in-progress window.
  const Histogram& current_window();
  sim::SimTime window_ns() const { return window_ns_; }

  /// Consistent copies safe to take concurrently with Add() (used by
  /// the registry exporters). Snapshots rotate first, like the
  /// reference accessors.
  Histogram SnapshotCumulative();
  Histogram SnapshotLastWindow();

 private:
  void MaybeRotate();  // requires mu_

  sim::Simulation* sim_;
  sim::SimTime window_ns_;
  std::mutex mu_;
  uint64_t window_index_ = 0;
  Histogram cumulative_;
  Histogram current_;
  Histogram last_;
};

/// Name+labels -> metric registry. Registration (GetX) allocates and is
/// not for hot paths: callers register once and keep the returned
/// pointer, which stays valid for the registry's lifetime. The returned
/// counters and gauges are lock-free to update; histograms take a
/// per-metric uncontended mutex. Snapshots (JSON / text table) list
/// metrics in registration order, so identical runs produce identical
/// output byte for byte.
///
/// Thread safety: registration and the snapshot exporters may run from
/// any thread, concurrently with each other and with hot-path updates
/// (real worker threads under the socket backend, DESIGN.md §13). The
/// one cross-thread caveat is sim time: histogram window rotation reads
/// the clock, so snapshots taken off the loop thread of a live
/// wall-clock deployment should go through the driver (or tolerate the
/// clock skewing under them — on the sim backend time only advances on
/// the caller's own thread anyway).
class MetricsRegistry {
 public:
  static constexpr sim::SimTime kDefaultWindowNs = 1 * kSecond;

  explicit MetricsRegistry(sim::Simulation* sim) : sim_(sim) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the metric registered under (name, labels), creating it on
  /// first use. Re-registering the same identity as a different type is
  /// a programming error (REDY_CHECK).
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  WindowedHistogram* GetHistogram(const std::string& name,
                                  const Labels& labels = {},
                                  sim::SimTime window_ns = kDefaultWindowNs);

  /// Deterministic snapshots: metrics in registration order.
  std::string ToJson();

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }
  sim::Simulation* sim() const { return sim_; }

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    std::string name;
    Labels labels;
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<WindowedHistogram> histogram;
  };

  /// Finds or creates (fully built, under mu_) the entry for the
  /// identity; `window_ns` only applies to histogram creation.
  Entry* Lookup(const std::string& name, const Labels& labels, Kind kind,
                sim::SimTime window_ns = kDefaultWindowNs);
  /// Stable Entry pointers in registration order (entries are never
  /// removed), taken under mu_ so exporters can format without holding
  /// the registry lock across metric reads.
  std::vector<Entry*> SnapshotEntries();

  sim::Simulation* sim_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Entry>> entries_;  // registration order
  std::unordered_map<std::string, Entry*> index_;
};

}  // namespace redy::telemetry

#endif  // REDY_TELEMETRY_METRICS_H_
