#ifndef REDY_REDY_PERF_MODEL_H_
#define REDY_REDY_PERF_MODEL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "common/result.h"
#include "redy/config.h"
#include "redy/slo.h"

namespace redy {

/// The offline performance model f : (c, s, b, q) -> (latency,
/// throughput) for one record size and one network distance
/// (Section 5.2). Only power-of-two grid configurations are actually
/// measured; everything in between is estimated by multilinear
/// interpolation between adjacent measured points.
class PerfModel {
 public:
  explicit PerfModel(ConfigBounds bounds = {}) : bounds_(bounds) {
    RebuildGrids();
  }

  void AddMeasurement(const RdmaConfig& cfg, PerfPoint point);
  Result<PerfPoint> Measurement(const RdmaConfig& cfg) const;

  /// Estimates performance of any valid configuration, interpolating
  /// between measured grid neighbors per dimension. Returns an error if
  /// the model has no usable points around `cfg`.
  Result<PerfPoint> Estimate(const RdmaConfig& cfg) const;

  const ConfigBounds& bounds() const { return bounds_; }
  uint64_t num_measurements() const { return points_.size(); }

  /// Persists/restores the model (text format). Offline modeling is
  /// run once per deployment and its result reused (Section 5.2);
  /// benchmarks cache the model on disk the same way.
  Status SaveToFile(const std::string& path) const;
  static Result<PerfModel> LoadFromFile(const std::string& path);

 private:
  static uint64_t Key(const RdmaConfig& cfg) {
    return (static_cast<uint64_t>(cfg.c) << 48) |
           (static_cast<uint64_t>(cfg.s) << 32) |
           (static_cast<uint64_t>(cfg.b) << 16) | cfg.q;
  }

  /// Nearest measured grid values bracketing `v` in `grid`.
  static void Bracket(const std::vector<uint32_t>& grid, uint32_t v,
                      uint32_t* lo, uint32_t* hi, double* frac);
  /// Precomputes the per-dimension interpolation grids (Estimate is on
  /// the online-search hot path).
  void RebuildGrids();

  ConfigBounds bounds_;
  std::unordered_map<uint64_t, PerfPoint> points_;
  std::vector<uint32_t> s_grid_, c_grid_, b_grid_, q_grid_;
};

/// Builds a PerfModel by running measurements (Fig. 9's loop between the
/// manager and the measurement application), with the two Section 5.2
/// optimizations:
///  - interpolation: only power-of-two grid configurations are measured;
///  - early termination: stop raising a parameter when the last increase
///    stopped improving throughput. The ablation bench toggles this one.
class OfflineModeler {
 public:
  struct Options {
    bool early_termination = true;
  };

  struct Stats {
    uint64_t space_size = 0;        // all valid configurations
    uint64_t grid_size = 0;         // configurations on the grid
    uint64_t measured = 0;          // actually measured
    uint64_t skipped_early = 0;     // skipped by early termination
  };

  using MeasureFn = std::function<PerfPoint(const RdmaConfig&)>;

  static PerfModel Build(const ConfigBounds& bounds, const MeasureFn& measure,
                         const Options& options, Stats* stats = nullptr);
};

}  // namespace redy

#endif  // REDY_REDY_PERF_MODEL_H_
