// Wall-clock benchmark of the Redy data path: pooled op state, flat
// hashing, and inline completion callbacks, measured two ways.
//
//  1. Bookkeeping microbenchmarks with an embedded copy of the legacy
//     per-op machinery (shared_ptr<OpState> + std::function callback +
//     unordered_map in-flight tracking; unordered_map page table).
//     These produce machine-independent new/legacy speedup ratios that
//     CI gates exactly like BENCH_sim_engine.json.
//  2. End-to-end scenarios on the real stack: one-sided reads, batched
//     two-sided ops, and FASTER YCSB-B (95% reads, Zipfian) at record
//     sizes {64 B, 1 KB, 8 KB}. These produce absolute wall-clock
//     ops/sec plus `norm` — ops/sec divided by a fixed CPU calibration
//     loop's rate — so the committed baseline transfers across
//     machines of different speeds. CI fails on a >20% norm drop.
//
// Like sim_engine_bench (and unlike the fig* binaries) this measures
// *real* time: the data path is pure overhead on top of the simulated
// fabric, so wall ops/sec is the figure of merit. Simulated outputs are
// byte-identical pre/post by construction (see DESIGN.md §10).
//
// Flags:
//   --out=<path>       JSON output (default BENCH_data_path.json)
//   --baseline=<path>  committed baseline; exit 1 on a >20% regression
//                      (speedup ratios and e2e norms)
//   --pre=<path>       JSON from a pre-change build of this bench; adds
//                      speedup_vs_pre to the e2e entries and enforces
//                      the >=2x YCSB-B acceptance floor. Only valid
//                      when both JSONs come from the same machine.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "common/flat_map.h"
#include "common/inline_callable.h"
#include "common/logging.h"
#include "faster_bench.h"
#include "redy/testbed.h"
#include "sim/poller.h"
#include "sim/simulation.h"
#include "ycsb/driver.h"

namespace redy::bench {
namespace {

// PinToCurrentCpu / WallSecondsOf / BestInterleavedSecondsOf /
// BaselineField / ReadFileOrEmpty come from bench_common.h (shared
// with sim_engine and fleet_campaign).

// ---------------------------------------------------------------------------
// Calibration: a fixed ALU-bound loop whose rate scales with the
// machine. e2e ops/sec divided by this rate ("norm") is comparable
// across machines, which is what the committed baseline gates on.
// ---------------------------------------------------------------------------

uint64_t RunCalibration(uint64_t iters) {
  uint64_t x = 0x243F6A8885A308D3ull;
  for (uint64_t i = 0; i < iters; i++) x = SplitMix64(x + i);
  return x;
}

// ---------------------------------------------------------------------------
// Bookkeeping microbenchmark: the per-op client machinery in isolation.
// Legacy side is the pre-change idiom verbatim: one shared_ptr<OpState>
// per op, a std::function completion whose capture exceeds the SBO, and
// an unordered_map tracking the in-flight sub-op. New side is the
// pooled idiom: slab-recycled generation-tagged OpState, an
// InlineCallable completion, and a FlatMap in-flight table. Both keep
// kInflight ops resident so the maps see realistic occupancy.
// ---------------------------------------------------------------------------

constexpr uint32_t kInflight = 1024;

struct LegacyOpState {
  std::function<void(Status)> cb;
  uint32_t remaining = 1;
  uint64_t bytes = 0;
};

struct LegacySubOp {
  uint64_t offset = 0;
  uint32_t len = 0;
  uint32_t vregion = 0;
  std::shared_ptr<LegacyOpState> state;
};

uint64_t RunLegacyBookkeeping(uint64_t ops) {
  std::unordered_map<uint64_t, LegacySubOp> inflight;
  uint64_t sink = 0;
  auto issue = [&](uint64_t wr) {
    auto st = std::make_shared<LegacyOpState>();
    const uint64_t a = wr, b = wr * 3, c = wr * 5, d = wr * 7, e = wr * 11;
    st->cb = [&sink, a, b, c, d, e](Status s) {
      sink += a + b + c + d + e + (s.ok() ? 1 : 0);
    };
    st->bytes = 64;
    inflight.emplace(wr, LegacySubOp{wr * 64, 64, 0, std::move(st)});
  };
  for (uint64_t wr = 0; wr < kInflight; wr++) issue(wr);
  for (uint64_t i = 0; i < ops; i++) {
    issue(kInflight + i);
    auto it = inflight.find(i);
    if (--it->second.state->remaining == 0) {
      it->second.state->cb(Status::OK());
    }
    inflight.erase(it);
  }
  return sink;
}

struct PooledOpState {
  common::InlineCallable<void(Status), 64> cb;
  uint32_t remaining = 0;
  uint32_t gen = 0;
  uint64_t bytes = 0;
};

struct PooledSubOp {
  uint64_t offset = 0;
  uint32_t len = 0;
  uint32_t vregion = 0;
  PooledOpState* state = nullptr;
  uint32_t gen = 0;
};

uint64_t RunPooledBookkeeping(uint64_t ops) {
  std::deque<PooledOpState> slab;
  std::vector<PooledOpState*> free_list;
  // Data-path convention: the in-flight table is reserved at several
  // times the connection's known depth bound, so steady-state occupancy
  // stays low and probe loops exit on their first, predictable branch.
  // The memory cost is bounded (16 B header + one value per slot) and
  // paid once at connection setup.
  common::FlatMap<PooledSubOp> inflight(8 * kInflight);
  uint64_t sink = 0;
  auto issue = [&](uint64_t wr) {
    PooledOpState* st;
    if (free_list.empty()) {
      slab.emplace_back();
      st = &slab.back();
    } else {
      st = free_list.back();
      free_list.pop_back();
    }
    const uint64_t a = wr, b = wr * 3, c = wr * 5, d = wr * 7, e = wr * 11;
    auto fn = [&sink, a, b, c, d, e](Status s) {
      sink += a + b + c + d + e + (s.ok() ? 1 : 0);
    };
    static_assert(decltype(st->cb)::fits_inline<decltype(fn)>());
    st->cb.Emplace(std::move(fn));
    st->remaining = 1;
    st->bytes = 64;
    inflight.Insert(wr, PooledSubOp{wr * 64, 64, 0, st, st->gen});
  };
  for (uint64_t wr = 0; wr < kInflight; wr++) issue(wr);
  for (uint64_t i = 0; i < ops; i++) {
    issue(kInflight + i);
    PooledSubOp op;
    if (inflight.Take(i, &op) && op.gen == op.state->gen &&
        --op.state->remaining == 0) {
      op.state->cb(Status::OK());
      op.state->gen++;
      free_list.push_back(op.state);
    }
  }
  return sink;
}

// ---------------------------------------------------------------------------
// Page-table microbenchmark: the PagedStore access pattern. Legacy is
// the pre-change unordered_map<page, unique_ptr<uint8_t[]>>; new is the
// direct-indexed page vector. 512 x 4 KB pages, 64 B accesses.
// ---------------------------------------------------------------------------

constexpr uint64_t kPages = 512;
constexpr uint64_t kPageBytes = 4096;

uint64_t RunLegacyPageTable(uint64_t ops) {
  std::unordered_map<uint64_t, std::unique_ptr<uint8_t[]>> pages;
  for (uint64_t p = 0; p < kPages; p++) {
    auto buf = std::make_unique<uint8_t[]>(kPageBytes);
    std::memset(buf.get(), static_cast<int>(p), kPageBytes);
    pages.emplace(p, std::move(buf));
  }
  uint64_t sink = 0;
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  uint8_t scratch[64];
  for (uint64_t i = 0; i < ops; i++) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t page = (lcg >> 33) % kPages;
    const uint64_t off = (lcg >> 20) % (kPageBytes - 64);
    auto it = pages.find(page);
    std::memcpy(scratch, it->second.get() + off, 64);
    sink += scratch[0];
  }
  return sink;
}

uint64_t RunDirectPageTable(uint64_t ops) {
  std::vector<uint8_t> slab(kPages * kPageBytes);
  std::vector<uint8_t*> pages(kPages);
  for (uint64_t p = 0; p < kPages; p++) {
    pages[p] = &slab[p * kPageBytes];
    std::memset(pages[p], static_cast<int>(p), kPageBytes);
  }
  uint64_t sink = 0;
  uint64_t lcg = 0x9E3779B97F4A7C15ull;
  uint8_t scratch[64];
  for (uint64_t i = 0; i < ops; i++) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    const uint64_t page = (lcg >> 33) % kPages;
    const uint64_t off = (lcg >> 20) % (kPageBytes - 64);
    std::memcpy(scratch, pages[page] + off, 64);
    sink += scratch[0];
  }
  return sink;
}

// ---------------------------------------------------------------------------
// End-to-end scenarios on the real stack.
// ---------------------------------------------------------------------------

/// Closed-loop reads against one cache: `depth` in flight, fixed
/// simulated window, wall seconds of the window returned. cfg.s == 0
/// exercises the one-sided path; s/b > 1 the batched two-sided path.
double RunClientLoop(const RdmaConfig& cfg, uint32_t record_bytes,
                     uint32_t depth, sim::SimTime window,
                     uint64_t* ops_out) {
  TestbedOptions to;
  to.pods = 1;
  to.racks_per_pod = 4;
  to.servers_per_rack = 1;
  to.client.region_bytes = 4 * kMiB;
  Testbed tb(to);
  const uint64_t cache_bytes = 8 * kMiB;
  auto id = tb.client().CreateWithConfig(cache_bytes, cfg, record_bytes);
  REDY_CHECK(id.ok());
  sim::Simulation& sim = tb.sim();
  CacheClient& client = tb.client();
  const uint64_t records = cache_bytes / record_bytes;

  std::vector<uint8_t> buf(record_bytes);
  uint64_t completed = 0, issued = 0;
  uint32_t inflight = 0;
  sim::Poller driver(&sim, 100, [&]() -> uint64_t {
    uint64_t consumed = 0;
    int budget = 64;
    while (inflight < depth && budget-- > 0) {
      const uint64_t addr = (issued % records) * record_bytes;
      inflight++;
      Status st = client.Read(
          *id, addr, buf.data(), record_bytes,
          [&completed, &inflight](Status) {
            completed++;
            inflight--;
          },
          0);
      if (!st.ok()) {
        inflight--;
        break;
      }
      issued++;
      consumed += 200;
    }
    return consumed == 0 ? 200 : consumed;
  });
  driver.Start();
  sim.RunFor(500 * kMicrosecond);  // warmup
  const uint64_t before = completed;
  const double wall = WallSecondsOf([&] { sim.RunFor(window); });
  *ops_out = completed - before;
  driver.Stop();
  // Drain stragglers so callbacks referencing this frame cannot
  // outlive it.
  int guard = 0;
  while (inflight > 0 && guard++ < 1'000'000 && sim.Step()) {
  }
  REDY_CHECK(inflight == 0);
  return wall;
}

/// FASTER YCSB-B (95% reads, Zipfian) over the Redy-fronted tiered
/// device at the given value size. Wall seconds of warmup+window
/// returned; ops counted over the measurement window.
double RunYcsbB(uint32_t value_bytes, sim::SimTime window,
                uint64_t* ops_out) {
  FasterStackOptions o;
  o.device = DeviceKind::kRedy;
  o.value_bytes = value_bytes;
  o.db_bytes = 32 * kMiB;
  o.local_memory_bytes = 8 * kMiB;
  o.redy_cache_bytes = 32 * kMiB;
  FasterStack s = BuildFasterStack(o);

  ycsb::Driver::Options d;
  d.threads = 4;
  d.warmup = 4 * kMillisecond;
  d.window = window;
  d.workload.records = o.db_bytes / (8 + value_bytes);
  d.workload.distribution = ycsb::Distribution::kZipfian;
  d.workload.read_fraction = 0.95;  // YCSB-B
  ycsb::Driver driver(&s.tb->sim(), s.kv.get(), d);
  REDY_CHECK(driver.Load().ok());
  ycsb::Driver::Result r;
  const double wall = WallSecondsOf([&] { r = driver.Run(); });
  *ops_out = r.ops;
  return wall;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct RatioResult {
  std::string name;
  double new_ops_per_sec = 0;
  double legacy_ops_per_sec = 0;
  double speedup = 0;
};

struct E2eResult {
  std::string name;
  double ops_per_sec = 0;
  double norm = 0;  // ops_per_sec / calibration rate
  double pre_ops_per_sec = 0;
  double speedup_vs_pre = 0;
};

}  // namespace
}  // namespace redy::bench

int main(int argc, char** argv) {
  using namespace redy::bench;
  std::string out_path = "BENCH_data_path.json";
  std::string baseline_path;
  std::string pre_path;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    }
    if (std::strncmp(argv[i], "--pre=", 6) == 0) pre_path = argv[i] + 6;
  }

  PinToCurrentCpu();

  std::printf("=============================================================\n");
  std::printf("Redy data-path wall-clock benchmark (pooled vs legacy)\n");
  std::printf("=============================================================\n");

  // Calibration: machine-speed proxy for the e2e norms.
  constexpr uint64_t kCalibIters = 200'000'000;
  uint64_t calib_sink = 0;
  double calib_best = WallSecondsOf([&] {
    calib_sink = RunCalibration(kCalibIters);
  });
  for (int i = 1; i < 3; i++) {
    calib_best = std::min(calib_best, WallSecondsOf([&] {
      calib_sink ^= RunCalibration(kCalibIters);
    }));
  }
  const double calib_rate = static_cast<double>(kCalibIters) / calib_best;
  std::printf("calibration  %.0f mixes/s (sink %llu)\n", calib_rate,
              static_cast<unsigned long long>(calib_sink & 1));

  std::vector<RatioResult> ratios;
  {
    RatioResult r;
    r.name = "op_bookkeeping";
    constexpr uint64_t kOps = 2'000'000;
    uint64_t sn = 0, sl = 0;
    const auto [tn, tl] = BestInterleavedSecondsOf(
        7, [&] { sn ^= RunPooledBookkeeping(kOps); },
        [&] { sl ^= RunLegacyBookkeeping(kOps); });
    r.new_ops_per_sec = static_cast<double>(kOps) / tn;
    r.legacy_ops_per_sec = static_cast<double>(kOps) / tl;
    r.speedup = r.new_ops_per_sec / r.legacy_ops_per_sec;
    ratios.push_back(r);
  }
  {
    RatioResult r;
    r.name = "page_table";
    constexpr uint64_t kOps = 20'000'000;
    uint64_t sn = 0, sl = 0;
    const auto [tn, tl] = BestInterleavedSecondsOf(
        7, [&] { sn ^= RunDirectPageTable(kOps); },
        [&] { sl ^= RunLegacyPageTable(kOps); });
    r.new_ops_per_sec = static_cast<double>(kOps) / tn;
    r.legacy_ops_per_sec = static_cast<double>(kOps) / tl;
    r.speedup = r.new_ops_per_sec / r.legacy_ops_per_sec;
    ratios.push_back(r);
  }

  std::vector<E2eResult> e2e;
  auto run_e2e = [&](const std::string& name,
                     const std::function<double(uint64_t*)>& run) {
    E2eResult r;
    r.name = name;
    double best = 0;
    for (int i = 0; i < 3; i++) {
      uint64_t ops = 0;
      const double wall = run(&ops);
      const double rate = static_cast<double>(ops) / wall;
      best = std::max(best, rate);
    }
    r.ops_per_sec = best;
    r.norm = best / calib_rate;
    e2e.push_back(r);
  };

  run_e2e("onesided_read", [&](uint64_t* ops) {
    return RunClientLoop(redy::RdmaConfig{1, 0, 1, 16}, 64, 16,
                         2 * redy::kMillisecond, ops);
  });
  run_e2e("batched_twosided", [&](uint64_t* ops) {
    return RunClientLoop(redy::RdmaConfig{1, 2, 16, 8}, 64, 64,
                         2 * redy::kMillisecond, ops);
  });
  run_e2e("ycsb_b_64", [&](uint64_t* ops) {
    return RunYcsbB(64, 40 * redy::kMillisecond, ops);
  });
  run_e2e("ycsb_b_1k", [&](uint64_t* ops) {
    return RunYcsbB(1024, 40 * redy::kMillisecond, ops);
  });
  run_e2e("ycsb_b_8k", [&](uint64_t* ops) {
    return RunYcsbB(8192, 20 * redy::kMillisecond, ops);
  });

  // Optional pre-change comparison (same-machine only).
  const std::string pre = ReadFileOrEmpty(pre_path);
  if (!pre_path.empty() && pre.empty()) {
    std::fprintf(stderr, "cannot read --pre=%s\n", pre_path.c_str());
    return 1;
  }
  for (auto& r : e2e) {
    if (pre.empty()) continue;
    r.pre_ops_per_sec = BaselineField(pre, r.name, "ops_per_sec");
    if (r.pre_ops_per_sec > 0) {
      r.speedup_vs_pre = r.ops_per_sec / r.pre_ops_per_sec;
    }
  }

  std::ostringstream json;
  json << "{\n";
  json << "  \"calib\": {\"mixes_per_sec\": " << calib_rate << "},\n";
  for (const auto& r : ratios) {
    std::printf("%-18s new: %12.0f /s   legacy: %12.0f /s   speedup: %5.2fx\n",
                r.name.c_str(), r.new_ops_per_sec, r.legacy_ops_per_sec,
                r.speedup);
    json << "  \"" << r.name << "\": {\"new\": " << r.new_ops_per_sec
         << ", \"legacy\": " << r.legacy_ops_per_sec
         << ", \"speedup\": " << r.speedup << "},\n";
  }
  for (size_t i = 0; i < e2e.size(); i++) {
    const auto& r = e2e[i];
    std::printf("%-18s %12.0f ops/s   norm: %.6f", r.name.c_str(),
                r.ops_per_sec, r.norm);
    if (r.speedup_vs_pre > 0) {
      std::printf("   vs pre: %5.2fx", r.speedup_vs_pre);
    }
    std::printf("\n");
    json << "  \"" << r.name << "\": {\"ops_per_sec\": " << r.ops_per_sec
         << ", \"norm\": " << r.norm;
    if (r.speedup_vs_pre > 0) {
      json << ", \"pre_ops_per_sec\": " << r.pre_ops_per_sec
           << ", \"speedup_vs_pre\": " << r.speedup_vs_pre;
    }
    json << "}" << (i + 1 < e2e.size() ? ",\n" : "\n");
  }
  json << "}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = true;

  // Acceptance floor: the pooled bookkeeping must beat the legacy
  // machinery >=2x (machine-independent; this is the mechanism the e2e
  // win rides on).
  for (const auto& r : ratios) {
    if (r.name == "op_bookkeeping" && r.speedup < 2.0) {
      std::fprintf(stderr, "FAIL: op_bookkeeping speedup %.2fx < 2x\n",
                   r.speedup);
      ok = false;
    }
  }
  // Acceptance floor vs the pre-change build (same machine): >=2x
  // wall-clock ops/sec on the FASTER YCSB-B scenario.
  if (!pre.empty()) {
    double best_ycsb = 0;
    for (const auto& r : e2e) {
      if (r.name.rfind("ycsb_b_", 0) == 0) {
        best_ycsb = std::max(best_ycsb, r.speedup_vs_pre);
      }
    }
    if (best_ycsb < 2.0) {
      std::fprintf(stderr, "FAIL: YCSB-B speedup vs pre %.2fx < 2x\n",
                   best_ycsb);
      ok = false;
    }
  }

  // Regression gate against the committed baseline: speedup ratios use
  // the BENCH_sim_engine.json convention (skip <=1.5x baselines, cap at
  // 20x, fail on >20% drop); e2e entries compare calibration-normalized
  // ops/sec the same way.
  if (!baseline_path.empty()) {
    const std::string base = ReadFileOrEmpty(baseline_path);
    if (base.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   baseline_path.c_str());
      ok = false;
    } else {
      constexpr double kRatioCap = 20.0;
      for (const auto& r : ratios) {
        const double want = BaselineField(base, r.name, "speedup");
        if (want <= 1.5) continue;
        const double have = std::min(r.speedup, kRatioCap);
        if (have < 0.8 * std::min(want, kRatioCap)) {
          std::fprintf(stderr,
                       "FAIL: %s speedup %.2fx regressed >20%% vs "
                       "baseline %.2fx\n",
                       r.name.c_str(), r.speedup, want);
          ok = false;
        } else {
          std::printf("%-18s vs baseline %.2fx: ok\n", r.name.c_str(),
                      want);
        }
      }
      for (const auto& r : e2e) {
        const double want = BaselineField(base, r.name, "norm");
        if (want <= 0) continue;
        if (r.norm < 0.8 * want) {
          std::fprintf(stderr,
                       "FAIL: %s norm %.6f regressed >20%% vs baseline "
                       "%.6f\n",
                       r.name.c_str(), r.norm, want);
          ok = false;
        } else {
          std::printf("%-18s vs baseline norm %.6f: ok\n", r.name.c_str(),
                      want);
        }
      }
    }
  }
  return ok ? 0 : 1;
}
