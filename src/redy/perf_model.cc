#include "redy/perf_model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/logging.h"

namespace redy {

namespace {

/// Offline modeling's tolerance for "throughput did not improve".
constexpr double kImprovementEpsilon = 0.01;

}  // namespace

void PerfModel::AddMeasurement(const RdmaConfig& cfg, PerfPoint point) {
  points_[Key(cfg)] = point;
}

Result<PerfPoint> PerfModel::Measurement(const RdmaConfig& cfg) const {
  auto it = points_.find(Key(cfg));
  if (it == points_.end()) return Status::NotFound("not measured");
  return it->second;
}

void PerfModel::Bracket(const std::vector<uint32_t>& grid, uint32_t v,
                        uint32_t* lo, uint32_t* hi, double* frac) {
  REDY_CHECK(!grid.empty());
  if (v <= grid.front()) {
    *lo = *hi = grid.front();
    *frac = 0;
    return;
  }
  if (v >= grid.back()) {
    *lo = *hi = grid.back();
    *frac = 0;
    return;
  }
  for (size_t i = 0; i + 1 < grid.size(); i++) {
    if (v >= grid[i] && v <= grid[i + 1]) {
      *lo = grid[i];
      *hi = grid[i + 1];
      *frac = grid[i] == grid[i + 1]
                  ? 0.0
                  : static_cast<double>(v - grid[i]) / (grid[i + 1] - grid[i]);
      return;
    }
  }
  *lo = *hi = grid.back();
  *frac = 0;
}

void PerfModel::RebuildGrids() {
  // Per-dimension power-of-two grids (s additionally has the 0 point;
  // constraint repairs happen per corner during interpolation).
  s_grid_ = {0};
  for (uint32_t v :
       ConfigBounds::PowerOfTwoGrid(1, bounds_.max_client_threads)) {
    s_grid_.push_back(v);
  }
  c_grid_ = ConfigBounds::PowerOfTwoGrid(1, bounds_.max_client_threads);
  b_grid_ = ConfigBounds::PowerOfTwoGrid(1, bounds_.MaxBatch());
  q_grid_ = ConfigBounds::PowerOfTwoGrid(bounds_.min_queue_depth,
                                         bounds_.max_queue_depth);
}

Result<PerfPoint> PerfModel::Estimate(const RdmaConfig& cfg) const {
  if (!bounds_.Valid(cfg)) return Status::InvalidArgument("invalid config");
  // Exact hit first.
  auto it = points_.find(Key(cfg));
  if (it != points_.end()) return it->second;

  uint32_t lo[4], hi[4];
  double frac[4];
  Bracket(s_grid_, cfg.s, &lo[0], &hi[0], &frac[0]);
  Bracket(c_grid_, cfg.c, &lo[1], &hi[1], &frac[1]);
  Bracket(b_grid_, cfg.b, &lo[2], &hi[2], &frac[2]);
  Bracket(q_grid_, cfg.q, &lo[3], &hi[3], &frac[3]);

  // Multilinear interpolation over up to 16 corners. Corners that were
  // never measured (early-terminated or constraint-invalid) drop out
  // and the remaining weights are renormalized.
  double wsum = 0, lat = 0, tput = 0;
  for (int mask = 0; mask < 16; mask++) {
    RdmaConfig corner;
    corner.s = (mask & 1) ? hi[0] : lo[0];
    corner.c = (mask & 2) ? hi[1] : lo[1];
    corner.b = (mask & 4) ? hi[2] : lo[2];
    corner.q = (mask & 8) ? hi[3] : lo[3];
    // Repair constraint violations on corners: s <= c and s=0 => b=1.
    if (corner.s > corner.c) corner.c = corner.s;
    if (corner.s == 0) corner.b = 1;
    double w = 1.0;
    w *= (mask & 1) ? frac[0] : 1.0 - frac[0];
    w *= (mask & 2) ? frac[1] : 1.0 - frac[1];
    w *= (mask & 4) ? frac[2] : 1.0 - frac[2];
    w *= (mask & 8) ? frac[3] : 1.0 - frac[3];
    if (w <= 0.0) continue;
    auto p = points_.find(Key(corner));
    if (p == points_.end()) continue;
    wsum += w;
    lat += w * p->second.latency_us;
    tput += w * p->second.throughput_mops;
  }
  if (wsum <= 0.0) {
    return Status::NotFound("no measured neighbors for config");
  }
  return PerfPoint{lat / wsum, tput / wsum};
}

Status PerfModel::SaveToFile(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  std::fprintf(f, "redy-perf-model v1 %u %u %u %u\n",
               bounds_.max_client_threads, bounds_.record_bytes,
               bounds_.max_queue_depth, bounds_.min_queue_depth);
  for (const auto& [key, p] : points_) {
    const uint32_t c = static_cast<uint32_t>(key >> 48);
    const uint32_t s = static_cast<uint32_t>((key >> 32) & 0xffff);
    const uint32_t b = static_cast<uint32_t>((key >> 16) & 0xffff);
    const uint32_t q = static_cast<uint32_t>(key & 0xffff);
    std::fprintf(f, "%u %u %u %u %.9g %.9g\n", c, s, b, q, p.latency_us,
                 p.throughput_mops);
  }
  std::fclose(f);
  return Status::OK();
}

Result<PerfModel> PerfModel::LoadFromFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return Status::NotFound("no model file at " + path);
  ConfigBounds bounds;
  char magic[32], version[8];
  if (std::fscanf(f, "%31s %7s %u %u %u %u", magic, version,
                  &bounds.max_client_threads, &bounds.record_bytes,
                  &bounds.max_queue_depth, &bounds.min_queue_depth) != 6 ||
      std::string(magic) != "redy-perf-model") {
    std::fclose(f);
    return Status::InvalidArgument("bad model file header");
  }
  PerfModel model(bounds);
  uint32_t c, s, b, q;
  double lat, tput;
  while (std::fscanf(f, "%u %u %u %u %lf %lf", &c, &s, &b, &q, &lat,
                     &tput) == 6) {
    model.AddMeasurement(RdmaConfig{c, s, b, q}, PerfPoint{lat, tput});
  }
  std::fclose(f);
  return model;
}

PerfModel OfflineModeler::Build(const ConfigBounds& bounds,
                                const MeasureFn& measure,
                                const Options& options, Stats* stats) {
  PerfModel model(bounds);
  Stats local;
  local.space_size = bounds.SpaceSize();

  // Power-of-two grids; Estimate interpolates everything in between.
  const std::vector<uint32_t> c_all =
      ConfigBounds::PowerOfTwoGrid(1, bounds.max_client_threads);
  std::vector<uint32_t> s_values = {0};
  s_values.insert(s_values.end(), c_all.begin(), c_all.end());
  const std::vector<uint32_t> b_all =
      ConfigBounds::PowerOfTwoGrid(1, bounds.MaxBatch());
  const std::vector<uint32_t> q_all = ConfigBounds::PowerOfTwoGrid(
      bounds.min_queue_depth, bounds.max_queue_depth);

  // Count grid size (respecting constraints) for reporting.
  for (uint32_t s : s_values) {
    for (uint32_t c : c_all) {
      if (c < s || (s == 0 && c < 1)) continue;
      const size_t b_count = (s == 0) ? 1 : b_all.size();
      local.grid_size += b_count * q_all.size();
    }
  }

  // Pre-order, resource-efficient exploration: s outermost (cheapest
  // first), then c, then b, then q — with early termination per
  // parameter when raising it stops improving throughput.
  auto improved = [](double now, double before) {
    return now > before * (1.0 + kImprovementEpsilon);
  };

  // Early termination is applied along the b and q ladders only: the
  // paper stops raising *one* parameter once throughput stops improving
  // (e.g. f(4,2,2,2) -> f(8,2,2,2)); propagating that to the thread
  // counts would let one noisy plateau hide genuinely better regions.
  for (uint32_t s : s_values) {
    for (uint32_t c : c_all) {
      if (c < s || c < 1) continue;
      const std::vector<uint32_t> b_values =
          (s == 0) ? std::vector<uint32_t>{1} : b_all;
      double best_tput_b = -1.0;
      int b_strikes = 0;
      for (size_t bi = 0; bi < b_values.size(); bi++) {
        const uint32_t b = b_values[bi];
        double level_best_b = -1.0;
        double prev_q_tput = -1.0;
        for (size_t qi = 0; qi < q_all.size(); qi++) {
          const uint32_t q = q_all[qi];
          RdmaConfig cfg{c, s, b, q};
          if (!bounds.Valid(cfg)) continue;
          const PerfPoint p = measure(cfg);
          model.AddMeasurement(cfg, p);
          local.measured++;
          level_best_b = std::max(level_best_b, p.throughput_mops);
          if (options.early_termination && prev_q_tput >= 0 &&
              !improved(p.throughput_mops, prev_q_tput)) {
            // Raising q further only raises latency.
            local.skipped_early += q_all.size() - 1 - qi;
            break;
          }
          prev_q_tput = p.throughput_mops;
        }
        // The b-ladder needs two consecutive non-improving batch sizes
        // before terminating: a single comparison is biased downward by
        // q-ladder truncation and would hide the batched region.
        if (options.early_termination) {
          if (best_tput_b >= 0 && !improved(level_best_b, best_tput_b)) {
            b_strikes++;
            if (b_strikes >= 2) {
              local.skipped_early +=
                  (b_values.size() - 1 - bi) * q_all.size();
              break;
            }
          } else {
            b_strikes = 0;
          }
        }
        best_tput_b = std::max(best_tput_b, level_best_b);
      }
    }
  }

  if (stats != nullptr) *stats = local;
  return model;
}

}  // namespace redy
