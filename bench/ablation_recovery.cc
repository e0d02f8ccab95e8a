// Ablation: recovery strategies under remote-memory dynamics
// (Section 6.2). Compares the paper's migration scheme against the
// replication alternative it mentions ("another alternative is
// replicating the cache") on the two loss events Redy must handle:
// a spot reclamation (30 s notice) and a hard server failure (none).

#include <cstring>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "redy/cache_client.h"

using namespace redy;

namespace {

struct Outcome {
  double recovery_ms = 0;   // loss event -> cache fully re-homed
  bool data_survived = false;
  double price_per_hour_factor = 1.0;
};

Outcome RunScenario(bool replicated, bool hard_failure,
                    bool traced = false) {
  TestbedOptions o = bench::BenchTestbed();
  o.client.region_bytes = 8 * kMiB;
  Testbed tb(o);
  if (traced) bench::AttachBenchTelemetry(tb);

  const uint64_t kCap = 24 * kMiB;
  auto id_or =
      replicated
          ? tb.client().CreateReplicated(kCap, RdmaConfig{1, 0, 1, 8}, 64,
                                         /*spot=*/true)
          : tb.client().CreateWithConfig(kCap, RdmaConfig{1, 0, 1, 8}, 64,
                                         /*spot=*/true);
  REDY_CHECK(id_or.ok());
  const auto id = *id_or;

  std::vector<uint8_t> data(kCap);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(SplitMix64(i) >> 7);
  }
  bool filled = false;
  (void)tb.client().Write(id, 0, data.data(), data.size(),
                          [&](Status st) { filled = st.ok(); });
  while (!filled && tb.sim().Step()) {
  }

  auto vm = tb.client().RegionVm(id, 0);
  REDY_CHECK(vm.ok());
  const sim::SimTime t0 = tb.sim().Now();
  if (hard_failure) {
    tb.FailNode(tb.allocator().Find(*vm)->server);
  } else {
    (void)tb.allocator().Reclaim(*vm);
  }

  // Recovery is complete when every region is off the lost VM and
  // (for replication) fully re-replicated.
  auto recovered = [&] {
    for (uint32_t r = 0; r < 3; r++) {
      auto v = tb.client().RegionVm(id, r);
      if (!v.ok() || *v == *vm) return false;
      if (replicated) {
        auto rep = tb.client().RegionReplicated(id, r);
        if (!rep.ok() || !*rep) return false;
      }
    }
    return true;
  };
  for (int i = 0; i < 30'000'000 && !recovered(); i++) {
    if (!tb.sim().Step()) break;
  }

  Outcome out;
  out.recovery_ms = ToMillis(tb.sim().Now() - t0);

  std::vector<uint8_t> check(data.size(), 0);
  bool read = false;
  Status read_st;
  (void)tb.client().Read(id, 0, check.data(), check.size(),
                         [&](Status st) {
                           read_st = st;
                           read = true;
                         });
  while (!read && tb.sim().Step()) {
  }
  out.data_survived = read_st.ok() && check == data;
  out.price_per_hour_factor = replicated ? 2.0 : 1.0;
  if (traced) bench::WriteBenchTelemetry(tb);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchTelemetry(argc, argv);
  bench::PrintHeader("Recovery-strategy ablation (migration vs replication)",
                     "Section 6.2 design alternatives");

  struct Row {
    const char* event;
    bool hard;
  };
  const Row rows[] = {{"spot reclaim (30s notice)", false},
                      {"server failure (no notice)", true}};
  std::printf("%-28s %-22s %12s %10s %8s\n", "loss event", "strategy",
              "recovery", "data", "cost");
  for (const Row& r : rows) {
    for (bool replicated : {false, true}) {
      Outcome o = RunScenario(replicated, r.hard);
      std::printf("%-28s %-22s %9.1f ms %10s %7.0fx\n", r.event,
                  replicated ? "replication" : "migration", o.recovery_ms,
                  o.data_survived ? "intact" : "LOST",
                  o.price_per_hour_factor);
    }
  }
  std::printf("\ntakeaway: migration is half the price and loses nothing "
              "given a\nreclamation notice, but a no-notice failure loses "
              "the cache contents;\nreplication doubles memory cost and "
              "survives hard failures with\ninstant promotion (its recovery "
              "time is the background re-replication,\nnot an availability "
              "gap). This is exactly the trade-off Section 6.2\nsketches.\n");

  if (bench::BenchTelemetryFlags().any()) {
    std::printf("\n[telemetry] re-running replicated hard-failure scenario "
                "with tracing\n");
    (void)RunScenario(/*replicated=*/true, /*hard_failure=*/true,
                      /*traced=*/true);
  }
  return 0;
}
