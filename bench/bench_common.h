#ifndef REDY_BENCH_BENCH_COMMON_H_
#define REDY_BENCH_BENCH_COMMON_H_

// Shared helpers for the figure-reproduction benchmark binaries. Each
// binary regenerates one table/figure of the paper and prints the rows
// the paper plots; EXPERIMENTS.md records paper-vs-measured.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "redy/measurement.h"
#include "redy/perf_model.h"
#include "redy/testbed.h"

namespace redy::bench {

/// Telemetry output destinations parsed from the command line. Shared
/// by every figure binary: `--trace-out=<path>` dumps a Perfetto
/// trace_event JSON, `--metrics-out=<path>` dumps the metrics registry
/// as JSON. Both default to off (empty).
struct TelemetryFlags {
  std::string trace_out;
  std::string metrics_out;
  bool any() const { return !trace_out.empty() || !metrics_out.empty(); }
};

inline TelemetryFlags& BenchTelemetryFlags() {
  static TelemetryFlags flags;
  return flags;
}

/// Parses --trace-out=/--metrics-out= into BenchTelemetryFlags().
/// Unknown arguments are ignored (binaries keep their own flags).
inline void InitBenchTelemetry(int argc, char** argv) {
  TelemetryFlags& flags = BenchTelemetryFlags();
  for (int i = 1; i < argc; i++) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      flags.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      flags.metrics_out = arg + 14;
    }
  }
}

/// Turns tracing on for `tb` when a trace destination was requested.
inline void AttachBenchTelemetry(Testbed& tb) {
  if (!BenchTelemetryFlags().trace_out.empty()) {
    tb.telemetry().tracer().Enable();
  }
}

/// Writes the requested telemetry artifacts from `tb` (call once, after
/// the instrumented run finishes).
inline void WriteBenchTelemetry(Testbed& tb) {
  const TelemetryFlags& flags = BenchTelemetryFlags();
  auto dump = [](const std::string& path, const std::string& body,
                 const char* what) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "[telemetry] cannot open %s\n", path.c_str());
      return;
    }
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("[telemetry] wrote %s (%zu bytes) to %s\n", what,
                body.size(), path.c_str());
  };
  if (!flags.trace_out.empty()) {
    dump(flags.trace_out, tb.telemetry().tracer().ExportJson(), "trace");
  }
  if (!flags.metrics_out.empty()) {
    dump(flags.metrics_out, tb.telemetry().metrics().ToJson(), "metrics");
  }
}

inline void PrintHeader(const std::string& title, const std::string& ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", ref.c_str());
  std::printf("==============================================================\n");
}

inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(q * (v.size() - 1));
  return v[i];
}

/// Wall-clock seconds of a callable (used for search-time reporting).
template <typename Fn>
double WallSeconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// Timed-trial harness shared by the gated perf benches (sim_engine,
// data_path, fleet_campaign).
// ---------------------------------------------------------------------------

/// Pin the process to the CPU it is currently on. Core migration
/// mid-benchmark (or the two engines of a ratio landing on cores with
/// different load/frequency) is the largest noise source on shared
/// machines; pinning keeps every trial of both sides on one core so
/// the interleaved minima see the same conditions. Best-effort: a
/// restricted affinity mask just leaves scheduling as-is. Do NOT call
/// this from benchmarks that measure multi-threaded speedups — pinning
/// the process to one core serializes the very parallelism under test.
inline void PinToCurrentCpu() {
#if defined(__linux__)
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
#endif
}

inline double WallSecondsOf(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best-of-N for a ratio's two sides, with the trials interleaved
/// (A, B, A, B, ...) instead of back-to-back blocks. Shared-machine
/// noise (CI runners, laptops on battery) only ever makes a run
/// *slower*, so each side's minimum is the best estimate of its true
/// cost; interleaving additionally makes frequency drift and co-tenant
/// interference hit both sides in the same window, so the two minima
/// come from comparable machine conditions and the ratio is far less
/// noisy than block measurement.
inline std::pair<double, double> BestInterleavedSecondsOf(
    int trials, const std::function<void()>& fn_a,
    const std::function<void()>& fn_b) {
  double best_a = WallSecondsOf(fn_a);
  double best_b = WallSecondsOf(fn_b);
  for (int i = 1; i < trials; i++) {
    best_a = std::min(best_a, WallSecondsOf(fn_a));
    best_b = std::min(best_b, WallSecondsOf(fn_b));
  }
  return {best_a, best_b};
}

/// Pulls `"field": <v>` out of the named entry of a machine-written
/// baseline JSON without a JSON library. The search is confined to the
/// entry's braces so fields of later entries are never misattributed.
inline double BaselineField(const std::string& json, const std::string& name,
                            const std::string& field) {
  const size_t at = json.find("\"" + name + "\"");
  if (at == std::string::npos) return 0;
  const size_t end = json.find('}', at);
  const size_t key = json.find("\"" + field + "\":", at);
  if (key == std::string::npos || key > end) return 0;
  return std::strtod(json.c_str() + key + field.size() + 3, nullptr);
}

inline std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The benchmark-scale configuration bounds: 16 client cores (the
/// paper's 30-core space is quoted alongside), 8-byte records
/// (B = 512), NIC queue depth 16.
inline ConfigBounds BenchBounds() {
  ConfigBounds b;
  b.max_client_threads = 16;
  b.record_bytes = 8;
  b.max_queue_depth = 16;
  return b;
}

inline TestbedOptions BenchTestbed() {
  // One server per rack: every cache lands at least 3 switches from the
  // client, matching the paper's testbed RTT (~2.9 us median).
  TestbedOptions o;
  o.pods = 2;
  o.racks_per_pod = 16;
  o.servers_per_rack = 1;
  o.client.region_bytes = 16 * kMiB;
  return o;
}

/// Builds (or loads from `cache_path`) the offline performance model by
/// actually measuring power-of-two grid configurations on the simulated
/// fabric — the Fig. 9 modeling loop. One build takes a minute or two
/// of real time; the result is cached on disk like a real deployment
/// would reuse its offline model.
inline PerfModel BuildOrLoadModel(const std::string& cache_path,
                                  OfflineModeler::Stats* stats = nullptr) {
  const ConfigBounds bounds = BenchBounds();
  auto loaded = PerfModel::LoadFromFile(cache_path);
  if (loaded.ok() &&
      loaded->bounds().max_client_threads == bounds.max_client_threads &&
      loaded->bounds().record_bytes == bounds.record_bytes) {
    if (stats != nullptr) {
      stats->space_size = bounds.SpaceSize();
      stats->measured = loaded->num_measurements();
    }
    std::printf("[model] loaded %llu measured configs from %s\n",
                static_cast<unsigned long long>(loaded->num_measurements()),
                cache_path.c_str());
    return std::move(*loaded);
  }

  std::printf("[model] building offline model (measuring grid configs "
              "on the simulated fabric)...\n");
  Testbed tb(BenchTestbed());
  MeasurementApp app(&tb);
  MeasurementApp::WorkloadOptions w;
  w.cache_bytes = 8 * kMiB;
  w.record_bytes = bounds.record_bytes;
  w.warmup = 100 * kMicrosecond;
  w.window = 400 * kMicrosecond;

  OfflineModeler::Options opt;
  opt.early_termination = true;
  PerfModel model = OfflineModeler::Build(
      bounds,
      [&](const RdmaConfig& cfg) {
        auto m = app.Measure(cfg, w);
        if (!m.ok()) return PerfPoint{1e9, 0.0};
        return m->point;
      },
      opt, stats);
  model.SaveToFile(cache_path);
  std::printf("[model] built %llu measurements, cached at %s\n",
              static_cast<unsigned long long>(model.num_measurements()),
              cache_path.c_str());
  return model;
}

inline const char* kModelCachePath = "redy_bench_model.cache";

}  // namespace redy::bench

#endif  // REDY_BENCH_BENCH_COMMON_H_
