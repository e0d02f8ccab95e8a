#ifndef REDY_BENCH_MIGRATION_TIMELINE_H_
#define REDY_BENCH_MIGRATION_TIMELINE_H_

// Shared harness for the Figs. 15/16 migration-impact experiment: a
// cache of seven regions on one VM, a steady paced 8-byte workload, and
// migrations of 1, 2, and 4 regions at the 1/4, 2/4 and 3/4 marks of
// the run. Reports throughput inside each exact migration window
// relative to baseline. (Time is scaled: the paper runs 4 minutes with
// 1 GB regions; we run 400 ms with 32 MiB regions — the pause policies,
// not absolute durations, set the drop percentages.)

#include <cinttypes>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "sim/poller.h"

namespace redy::bench {

struct TimelineResult {
  double baseline_mops = 0;
  // Throughput during each migration window, and the window bounds.
  std::vector<double> during_mops;
  std::vector<std::pair<sim::SimTime, sim::SimTime>> windows;
  std::vector<double> bucket_mops;  // 10 ms buckets for the plot
};

inline TimelineResult RunMigrationTimeline(bool reads, bool optimized,
                                           bool traced = false) {
  TestbedOptions o = BenchTestbed();
  o.client.region_bytes = 32 * kMiB;
  o.client.unpaused_reads = optimized;
  o.client.pause_per_region_writes = optimized;
  Testbed tb(o);
  if (traced) AttachBenchTelemetry(tb);

  const uint64_t kRegions = 7;
  const uint64_t kCapacity = kRegions * o.client.region_bytes;
  auto id_or = tb.client().CreateWithConfig(kCapacity,
                                            RdmaConfig{2, 0, 1, 16}, 8);
  REDY_CHECK(id_or.ok());
  const auto id = *id_or;

  // Verify all regions start on one VM (the experiment's setup).
  auto vm0 = tb.client().RegionVm(id, 0);
  REDY_CHECK(vm0.ok());

  const sim::SimTime kRun = 520 * kMillisecond;
  const sim::SimTime kBucket = kMillisecond;
  std::vector<uint64_t> ops_per_ms(kRun / kBucket + 1, 0);

  // Paced (open-loop) issuers: 2 threads x 1 op / us = 2 MOPS offered.
  struct Issuer {
    std::unique_ptr<sim::Poller> poller;
    Rng rng{0};
    std::vector<uint8_t> buf;
  };
  std::vector<std::unique_ptr<Issuer>> issuers;
  for (uint32_t t = 0; t < 2; t++) {
    auto is = std::make_unique<Issuer>();
    is->rng = Rng(0xF15 + t);
    is->buf.assign(8, static_cast<uint8_t>(t));
    Issuer* ip = is.get();
    is->poller = std::make_unique<sim::Poller>(
        &tb.sim(), 1000, [&, ip, t]() -> uint64_t {
          const uint64_t addr = (ip->rng.Uniform(kCapacity / 8)) * 8;
          auto cb = [&, issued = tb.sim().Now()](Status s) {
            if (!s.ok()) return;
            const uint64_t bucket = tb.sim().Now() / kBucket;
            if (bucket < ops_per_ms.size()) ops_per_ms[bucket]++;
          };
          Status st = reads ? tb.client().Read(id, addr, ip->buf.data(), 8,
                                               cb, t)
                            : tb.client().Write(id, addr, ip->buf.data(), 8,
                                                cb, t);
          (void)st;  // ring-full drops are negligible at this load
          return 1000;
        });
    is->poller->Start();
    issuers.push_back(std::move(is));
  }

  // Schedule the three migrations: 1, 2, then 4 regions.
  TimelineResult result;
  result.windows.resize(3);
  const std::vector<std::vector<uint32_t>> groups = {
      {0}, {1, 2}, {3, 4, 5, 6}};
  const sim::SimTime starts[] = {100 * kMillisecond, 200 * kMillisecond,
                                 340 * kMillisecond};
  for (int g = 0; g < 3; g++) {
    const sim::SimTime at = starts[g];
    tb.sim().At(at, [&, g] {
      result.windows[g].first = tb.sim().Now();
      Status st = tb.client().MigrateRegions(
          id, groups[g], tb.sim().Now() + 30 * kSecond,
          [&, g](const CacheClient::MigrationEvent& e) {
            result.windows[g].second = e.finished;
          });
      REDY_CHECK(st.ok());
    });
  }

  tb.sim().RunUntil(kRun);

  // Baseline: the second 50 ms (steady, before any migration).
  uint64_t base_ops = 0;
  for (uint64_t ms = 50; ms < 100; ms++) base_ops += ops_per_ms[ms];
  result.baseline_mops = static_cast<double>(base_ops) / 50e3;

  for (int g = 0; g < 3; g++) {
    const auto [w0, w1] = result.windows[g];
    uint64_t ops = 0;
    const uint64_t m0 = w0 / kBucket;
    const uint64_t m1 = std::max<uint64_t>(w1 / kBucket, m0 + 1);
    for (uint64_t ms = m0; ms < m1 && ms < ops_per_ms.size(); ms++) {
      ops += ops_per_ms[ms];
    }
    result.during_mops.push_back(static_cast<double>(ops) /
                                 (static_cast<double>(m1 - m0) * 1e3));
  }

  for (uint64_t ms = 0; ms + 10 <= kRun / kBucket; ms += 10) {
    uint64_t ops = 0;
    for (uint64_t i = ms; i < ms + 10; i++) ops += ops_per_ms[i];
    result.bucket_mops.push_back(static_cast<double>(ops) / 10e3);
  }
  if (traced) WriteBenchTelemetry(tb);
  return result;
}

inline void PrintTimeline(const char* what, const TimelineResult& opt,
                          const TimelineResult& naive,
                          const char* paper_naive,
                          const char* paper_opt) {
  std::printf("baseline throughput: %.2f MOPS (offered load 2 MOPS)\n\n",
              opt.baseline_mops);
  std::printf("%-22s %14s %14s\n", " ", "without opt.", "with opt.");
  const char* labels[] = {"migrate 1 region", "migrate 2 regions",
                          "migrate 4 regions"};
  for (int g = 0; g < 3; g++) {
    const double dn = 100.0 * (1.0 - naive.during_mops[g] /
                                         naive.baseline_mops);
    const double dp =
        100.0 * (1.0 - opt.during_mops[g] / opt.baseline_mops);
    std::printf("%-22s %12.1f%% %12.1f%%   (%s drop)\n", labels[g], dn,
                dp > 0 ? dp : 0.0, what);
  }
  std::printf("\npaper: without optimizations the %s throughput drops by "
              "~%s;\nwith the optimization it %s.\n", what, paper_naive,
              paper_opt);
  std::printf("\n10ms-bucket timeline (MOPS), optimized run:\n");
  for (size_t i = 0; i < opt.bucket_mops.size(); i++) {
    std::printf("%5zu ms %6.2f  ", i * 10, opt.bucket_mops[i]);
    if ((i + 1) % 4 == 0) std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace redy::bench

#endif  // REDY_BENCH_MIGRATION_TIMELINE_H_
