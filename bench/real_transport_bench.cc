// Real-transport benchmark: the same YCSB-B workload (95% reads / 5%
// writes) measured twice —
//
//   sim:   the event-driven simulator (Testbed), throughput read off
//          the simulated clock; this is the *model's prediction*,
//   real:  the socket backend (LoopbackRig): queue pairs on in-process
//          AF_UNIX socketpairs, epoll workers, wall-clock time.
//
// at 64 B / 1 KB / 8 KB records. The point of the comparison is not
// that the numbers match — the simulator models an RDMA fabric, the
// real backend pays socket syscall and scheduling costs — but that the
// identical, unmodified stack completes the workload on both, and that
// the wall-clock numbers are tracked against a committed baseline.
//
// Flags:
//   --ops=<n>          timed ops per record size (default 10000)
//   --out=<path>       JSON output (default BENCH_real_transport.json)
//   --baseline=<path>  committed baseline; exit 1 on a severe (>5x)
//                      wall-clock throughput drop — lenient on purpose,
//                      CI machines vary widely
//   --gate             machine-independent acceptance checks: every op
//                      completes OK, read-back integrity holds, and
//                      each size clears a very lenient ops/s floor
//
// EXPERIMENTS.md records the sim-vs-real rows.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/random.h"
#include "redy/cache_client.h"
#include "redy/testbed.h"
#include "transport/loopback.h"
#include "transport/wall_clock.h"

namespace redy::bench {
namespace {

constexpr uint64_t kCacheBytes = 16 * kMiB;
constexpr uint64_t kRegionBytes = 8 * kMiB;
constexpr uint32_t kWindow = 4;  // outstanding ops
const RdmaConfig kConfig{1, 1, 4, 8};

struct SizeResult {
  uint32_t record_bytes = 0;
  double sim_ops_per_sec = 0;
  double real_ops_per_sec = 0;
  double real_p50_us = 0;
  double real_p99_us = 0;
  uint64_t failed = 0;
  bool integrity_ok = false;
  double ratio() const {
    return sim_ops_per_sec > 0 ? real_ops_per_sec / sim_ops_per_sec : 0;
  }
};

/// YCSB-B key choice and op mix, identical across both phases.
struct Workload {
  explicit Workload(uint32_t record_bytes)
      : records(kRegionBytes / record_bytes), rng(0xBE7C) {}
  uint64_t NextAddr(uint32_t record_bytes) {
    return rng.Uniform(records) * record_bytes;
  }
  bool NextIsRead() { return rng.Bernoulli(0.95); }
  uint64_t records;
  Rng rng;
};

/// Phase 1: the simulator's prediction, ops/s off the simulated clock.
double RunSimPhase(uint32_t record_bytes, uint64_t total_ops) {
  TestbedOptions opts;
  opts.pods = 1;
  opts.racks_per_pod = 1;
  opts.servers_per_rack = 4;
  opts.client.region_bytes = kRegionBytes;
  Testbed tb(opts);
  auto cache_or =
      tb.client().CreateWithConfig(kCacheBytes, kConfig, record_bytes);
  if (!cache_or.ok()) {
    std::fprintf(stderr, "sim Create failed: %s\n",
                 cache_or.status().ToString().c_str());
    return 0;
  }
  const auto cache = *cache_or;

  Workload wl(record_bytes);
  std::vector<uint8_t> buf(record_bytes, 0x5A);
  uint64_t issued = 0, completed = 0;
  auto issue = [&] {
    auto done = [&](Status) { completed++; };
    const uint64_t addr = wl.NextAddr(record_bytes);
    if (wl.NextIsRead()) {
      tb.client().Read(cache, addr, buf.data(), record_bytes,
                       std::move(done));
    } else {
      tb.client().Write(cache, addr, buf.data(), record_bytes,
                        std::move(done));
    }
    issued++;
  };

  // Warmup outside the measured window (connection setup).
  const uint64_t warmup = 256;
  while (completed < warmup) {
    while (issued < warmup && issued - completed < kWindow) issue();
    if (!tb.sim().Step()) break;
  }

  const sim::SimTime t0 = tb.sim().Now();
  const uint64_t goal = warmup + total_ops;
  while (completed < goal) {
    while (issued < goal && issued - completed < kWindow) issue();
    if (!tb.sim().Step()) break;
  }
  const double secs = (tb.sim().Now() - t0) / 1e9;
  tb.client().Delete(cache);
  return secs > 0 ? total_ops / secs : 0;
}

/// Phase 2: the socket backend against the wall clock.
void RunRealPhase(uint32_t record_bytes, uint64_t total_ops,
                  SizeResult* out) {
  using transport::WallClockDriver;
  transport::LoopbackRigOptions opts;
  opts.client.region_bytes = kRegionBytes;
  transport::LoopbackRig rig(opts);

  const auto cache_or = rig.Call([&] {
    return rig.client().CreateWithConfig(kCacheBytes, kConfig,
                                         record_bytes);
  });
  if (!cache_or.ok()) {
    std::fprintf(stderr, "real Create failed: %s\n",
                 cache_or.status().ToString().c_str());
    return;
  }
  const auto cache = *cache_or;

  // Read-back integrity before the timed run: a patterned record must
  // survive the trip through the server process's memory.
  {
    std::vector<uint8_t> wr(record_bytes), rd(record_bytes, 0);
    for (uint32_t i = 0; i < record_bytes; i++) {
      wr[i] = static_cast<uint8_t>(i * 131 + 7);
    }
    bool done = false;
    Status st = Status::OK();
    rig.Call([&] {
      rig.client().Write(cache, 0, wr.data(), record_bytes, [&](Status s) {
        if (!s.ok()) {
          st = s;
          done = true;
          return;
        }
        rig.client().Read(cache, 0, rd.data(), record_bytes,
                          [&](Status s2) {
                            st = s2;
                            done = true;
                          });
      });
    });
    rig.AwaitTrue([&] { return done; });
    out->integrity_ok = st.ok() && std::memcmp(wr.data(), rd.data(),
                                               record_bytes) == 0;
    if (!out->integrity_ok) {
      std::fprintf(stderr, "integrity check FAILED at %u B: %s\n",
                   record_bytes, st.ToString().c_str());
    }
  }

  Workload wl(record_bytes);
  std::vector<uint8_t> buf(record_bytes, 0x5A);
  std::vector<double> lat_us;
  lat_us.reserve(total_ops);
  uint64_t issued = 0;
  std::atomic<uint64_t> completed{0}, failed{0};
  const uint64_t warmup = 256;
  const uint64_t goal = warmup + total_ops;

  auto pump = [&] {
    rig.Call([&] {
      while (issued < goal &&
             issued - completed.load(std::memory_order_relaxed) < kWindow) {
        const uint64_t addr = wl.NextAddr(record_bytes);
        const bool is_read = wl.NextIsRead();
        const uint64_t start = WallClockDriver::MonotonicNs();
        const bool timed = issued >= warmup;
        auto done = [&, start, timed](Status st) {
          if (!st.ok()) failed.fetch_add(1, std::memory_order_relaxed);
          if (timed) {
            lat_us.push_back((WallClockDriver::MonotonicNs() - start) /
                             1e3);
          }
          completed.fetch_add(1, std::memory_order_relaxed);
        };
        if (is_read) {
          rig.client().Read(cache, addr, buf.data(), record_bytes,
                            std::move(done));
        } else {
          rig.client().Write(cache, addr, buf.data(), record_bytes,
                             std::move(done));
        }
        issued++;
      }
    });
  };

  while (completed.load(std::memory_order_acquire) < warmup) pump();
  const uint64_t t0 = WallClockDriver::MonotonicNs();
  while (completed.load(std::memory_order_acquire) < goal) {
    pump();
    ::usleep(20);
  }
  const double secs = (WallClockDriver::MonotonicNs() - t0) / 1e9;
  rig.Call([] {});  // synchronize lat_us writes

  out->real_ops_per_sec = secs > 0 ? total_ops / secs : 0;
  out->real_p50_us = Percentile(lat_us, 0.50);
  out->real_p99_us = Percentile(lat_us, 0.99);
  out->failed = failed.load();
  rig.Call([&] { rig.client().Delete(cache); });
}

// BaselineField / ReadFileOrEmpty come from bench_common.h.

}  // namespace
}  // namespace redy::bench

int main(int argc, char** argv) {
  using namespace redy::bench;
  std::string out_path = "BENCH_real_transport.json";
  std::string baseline_path;
  uint64_t total_ops = 10'000;
  bool gate = false;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    }
    if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      total_ops = std::strtoull(argv[i] + 6, nullptr, 10);
    }
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  PrintHeader("Real-transport YCSB-B: simulated prediction vs wall clock",
              "DESIGN.md §13 (socket backend)");

  const uint32_t kSizes[] = {64, 1024, 8192};
  std::vector<SizeResult> results;
  for (const uint32_t size : kSizes) {
    SizeResult r;
    r.record_bytes = size;
    std::printf("[%5u B] sim phase...\n", size);
    r.sim_ops_per_sec = RunSimPhase(size, total_ops);
    std::printf("[%5u B] real phase...\n", size);
    RunRealPhase(size, total_ops, &r);
    std::printf("[%5u B] sim %.0f ops/s | real %.0f ops/s (p50 %.1f us, "
                "p99 %.1f us, %llu failed) | real/sim %.4f\n",
                size, r.sim_ops_per_sec, r.real_ops_per_sec, r.real_p50_us,
                r.real_p99_us, static_cast<unsigned long long>(r.failed),
                r.ratio());
    results.push_back(r);
  }

  // JSON out.
  {
    std::ofstream out(out_path);
    out << "{\n";
    for (size_t i = 0; i < results.size(); i++) {
      const SizeResult& r = results[i];
      char line[512];
      std::snprintf(
          line, sizeof(line),
          "  \"ycsb_real_%u\": {\"sim_ops_per_sec\": %g, "
          "\"real_ops_per_sec\": %g, \"real_p50_us\": %g, "
          "\"real_p99_us\": %g, \"ratio\": %g}%s\n",
          r.record_bytes, r.sim_ops_per_sec, r.real_ops_per_sec,
          r.real_p50_us, r.real_p99_us, r.ratio(),
          i + 1 < results.size() ? "," : "");
      out << line;
    }
    out << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  int rc = 0;

  // --gate: machine-independent acceptance. The floor is deliberately
  // tiny (500 ops/s — two orders below what loopback achieves on any
  // development machine): it catches "the backend stopped moving", not
  // "this CI runner is slow".
  if (gate) {
    for (const SizeResult& r : results) {
      if (r.failed != 0) {
        std::fprintf(stderr, "GATE FAIL: %u B: %llu ops failed\n",
                     r.record_bytes,
                     static_cast<unsigned long long>(r.failed));
        rc = 1;
      }
      if (!r.integrity_ok) {
        std::fprintf(stderr, "GATE FAIL: %u B: read-back integrity\n",
                     r.record_bytes);
        rc = 1;
      }
      if (r.real_ops_per_sec < 500) {
        std::fprintf(stderr, "GATE FAIL: %u B: %.0f ops/s below floor\n",
                     r.record_bytes, r.real_ops_per_sec);
        rc = 1;
      }
    }
    if (rc == 0) std::printf("gate: all checks passed\n");
  }

  // Baseline comparison: only a severe (>5x) wall-clock drop fails —
  // absolute throughput varies widely across machines.
  if (!baseline_path.empty()) {
    const std::string base = ReadFileOrEmpty(baseline_path);
    if (base.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   baseline_path.c_str());
      rc = 1;
    } else {
      for (const SizeResult& r : results) {
        const std::string name =
            "ycsb_real_" + std::to_string(r.record_bytes);
        const double was = BaselineField(base, name, "real_ops_per_sec");
        if (was <= 0) continue;
        const double rel = r.real_ops_per_sec / was;
        if (rel < 0.2) {
          std::fprintf(stderr,
                       "FAIL: %s real %.0f ops/s is >5x below baseline "
                       "%.0f\n",
                       name.c_str(), r.real_ops_per_sec, was);
          rc = 1;
        } else {
          std::printf("%-16s vs baseline %.2fx: ok\n", name.c_str(), rel);
        }
      }
    }
  }
  return rc;
}
