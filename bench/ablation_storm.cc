// Ablation: deadline-aware (EDF) migration scheduling vs naive
// all-at-once racing under a reclamation storm. N single-region spot
// VMs get overlapping 3 ms notices; at 8 Gb/s one 2 MiB region copy
// takes ~2.1 ms, so the aggregate bandwidth cannot save everything.
// EDF serializes transfers earliest-deadline-first and completes whole
// regions before their force-free; naive racing splits the same
// bandwidth N ways and tends to lose the tail of every region at once.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "chaos/fault_injector.h"
#include "chaos/storm.h"
#include "common/logging.h"
#include "redy/cache_client.h"

using namespace redy;

namespace {

constexpr uint64_t kRegion = 2 * kMiB;
constexpr uint32_t kRegions = 8;

struct Row {
  uint32_t n = 0;
  bool edf = false;
  /// Bytes of regions fully migrated before their force-free — data
  /// that survived the storm intact.
  uint64_t bytes_intact = 0;
  /// Acked prefixes of regions the deadline caught mid-copy. The
  /// prefix is salvage, not a surviving region: the region is counted
  /// lost and its tail is gone.
  uint64_t bytes_salvaged = 0;
  uint64_t bytes_lost = 0;
  uint32_t regions_lost = 0;
};

/// `traced` turns on the span tracer, arms a deterministic set of gray-
/// fault windows overlapping the storm, and dumps the telemetry
/// artifacts requested on the command line when the run finishes.
Row Run(uint32_t n, bool edf, bool traced = false) {
  TestbedOptions o;
  o.pods = 2;
  o.racks_per_pod = 2;
  o.servers_per_rack = 8;
  o.client.region_bytes = kRegion;
  o.client.max_regions_per_vm = 1;  // N victims reclaim exactly N regions
  o.client.edf_migration = edf;
  o.reclaim_notice = 3 * kMillisecond;
  Testbed tb(o);
  if (traced) bench::AttachBenchTelemetry(tb);

  const uint64_t cap = kRegions * kRegion;
  auto id_or =
      tb.client().CreateWithConfig(cap, RdmaConfig{1, 0, 1, 8}, 64,
                                   /*spot=*/true);
  REDY_CHECK(id_or.ok());
  const auto id = *id_or;

  // A full cache when the storm hits (zero-time backdoor fill; the
  // byte accounting below comes from the migration events).
  std::vector<uint8_t> data(cap);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(SplitMix64(i) >> 3);
  }
  REDY_CHECK(tb.client().Poke(id, 0, data.data(), data.size()).ok());

  chaos::ReclamationStorm::Options sopts;
  sopts.seed = 42;
  sopts.start = tb.sim().Now() + 100 * kMicrosecond;
  sopts.stagger = 500 * kMicrosecond;
  for (uint32_t r = 0; r < n; r++) {
    auto vm = tb.client().RegionVm(id, r);
    REDY_CHECK(vm.ok());
    sopts.victims.push_back(*vm);
  }
  chaos::ReclamationStorm storm(&tb.sim(), &tb.allocator(), sopts);
  if (traced) {
    storm.set_telemetry(&tb.telemetry());
    // Explicit (seed-independent) gray-fault windows overlapping the
    // storm so the trace shows fault windows next to the migrations.
    chaos::FaultInjector* inj = tb.EnableChaos({});
    inj->AddDegrade(tb.app_node(), 1, sopts.start, 1 * kMillisecond,
                    2 * kMicrosecond);
    inj->AddLossy(tb.app_node(), 2, sopts.start + 500 * kMicrosecond,
                  1 * kMillisecond, 0.05);
    inj->AddStall(3, sopts.start, 500 * kMicrosecond);
  }
  storm.Arm();

  for (int i = 0; i < 200'000'000; i++) {
    if (storm.reclaims_issued() == n &&
        tb.sim().Now() > storm.last_deadline() &&
        tb.client().PendingRecoveries() == 0) {
      break;
    }
    if (!tb.sim().Step()) break;
  }

  Row row;
  row.n = n;
  row.edf = edf;
  for (const auto& ev : tb.client().migrations()) {
    const uint64_t intact =
        static_cast<uint64_t>(ev.regions - ev.regions_lost) * kRegion;
    row.bytes_intact += intact;
    row.bytes_salvaged += ev.bytes - intact;
    row.bytes_lost += ev.bytes_lost;
    row.regions_lost += ev.regions_lost;
  }
  if (traced) bench::WriteBenchTelemetry(tb);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBenchTelemetry(argc, argv);
  bench::PrintHeader(
      "Storm-scheduling ablation (EDF vs naive racing)",
      "Section 6.2 migration under overlapping reclamations");

  std::printf("%-10s %-10s %12s %13s %10s %14s\n", "reclaims", "scheduler",
              "intact MiB", "salvaged MiB", "lost MiB", "regions lost");
  for (uint32_t n : {1u, 2u, 4u, 8u}) {
    for (bool edf : {true, false}) {
      const Row r = Run(n, edf);
      std::printf("%-10u %-10s %12.2f %13.2f %10.2f %8u of %u\n", r.n,
                  edf ? "EDF" : "naive",
                  static_cast<double>(r.bytes_intact) / kMiB,
                  static_cast<double>(r.bytes_salvaged) / kMiB,
                  static_cast<double>(r.bytes_lost) / kMiB, r.regions_lost,
                  r.n);
    }
  }
  std::printf(
      "\ntakeaway: at equal aggregate bandwidth, the deadline-aware\n"
      "scheduler migrates whole regions before their force-free —\n"
      "intact bytes that survive the storm — and degrades gracefully\n"
      "as the storm widens. Naive racing splits the bandwidth across\n"
      "every transfer at once, so no region finishes: everything it\n"
      "moves is the salvaged prefix of a region whose tail is lost.\n");

  if (bench::BenchTelemetryFlags().any()) {
    std::printf("\n[telemetry] re-running n=4 EDF with tracing enabled\n");
    (void)Run(4, /*edf=*/true, /*traced=*/true);
  }
  return 0;
}
