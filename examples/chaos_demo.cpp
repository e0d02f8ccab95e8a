// Chaos demo: run cache traffic through a seeded fault schedule and
// watch the client's resilience machinery absorb it.
//
// The fault injector degrades links, drops WQEs, flaps links, and
// stalls NICs in deterministic simulated-time windows; the client is
// configured with per-sub-op deadlines and bounded retries, so most
// faults never reach the application. Re-running with the same seed
// reproduces the exact same schedule and counters.
//
// Build & run:  ./build/examples/example_chaos_demo [seed]

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "chaos/fault_injector.h"
#include "redy/cache_client.h"
#include "redy/testbed.h"

using namespace redy;

int main(int argc, char** argv) {
  const uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 42;

  // A small deployment with the resilience machinery switched on.
  TestbedOptions opts;
  opts.client.region_bytes = 2 * kMiB;
  opts.client.max_retries = 6;
  opts.client.sub_op_timeout_ns = 200 * kMicrosecond;
  Testbed tb(opts);

  auto cache_or =
      tb.client().CreateWithConfig(4 * kMiB, RdmaConfig{2, 0, 1, 8}, 64);
  if (!cache_or.ok()) {
    std::printf("Create failed: %s\n", cache_or.status().ToString().c_str());
    return 1;
  }
  const auto cache = *cache_or;

  // Seeded fault schedule over the cache's physical nodes.
  chaos::FaultInjector::Options copts;
  copts.seed = seed;
  copts.start = tb.sim().Now();
  copts.horizon = 4 * kMillisecond;
  for (uint32_t r = 0; r < 2; r++) {
    auto vm = tb.client().RegionVm(cache, r);
    if (vm.ok()) copts.servers.push_back(tb.allocator().Find(*vm)->server);
  }
  auto* chaos = tb.EnableChaos(copts);
  chaos->Arm();
  std::printf("seed %llu: faults armed until t=%llu us\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(chaos->last_fault_end() /
                                              kMicrosecond));

  // Mixed traffic in bursts until the whole schedule has played out.
  uint64_t submitted = 0, completed = 0, failed = 0;
  char buf[64] = {1};
  while (tb.sim().Now() <= chaos->last_fault_end()) {
    for (int i = 0; i < 64; i++) {
      const uint64_t addr = (submitted * 64) % (4 * kMiB);
      auto cb = [&](Status st) {
        completed++;
        if (!st.ok()) failed++;
      };
      Status st = (i % 2 == 0)
                      ? tb.client().Write(cache, addr, buf, 64, cb, i % 2)
                      : tb.client().Read(cache, addr, buf, 64, cb, i % 2);
      if (st.ok()) submitted++;
    }
    while (completed < submitted && tb.sim().Step()) {
    }
    tb.sim().RunFor(20 * kMicrosecond);
  }
  if (completed != submitted) {
    std::printf("HUNG: %llu of %llu ops never completed\n",
                static_cast<unsigned long long>(submitted - completed),
                static_cast<unsigned long long>(submitted));
    return 1;
  }

  const auto* stats = tb.client().stats(cache);
  std::printf("under faults: %llu ops, %llu failed\n",
              static_cast<unsigned long long>(submitted),
              static_cast<unsigned long long>(failed));
  std::printf(
      "injected: %llu wqe errors, %llu delays, %llu spikes, %llu stalls\n",
      static_cast<unsigned long long>(chaos->injected_errors()),
      static_cast<unsigned long long>(chaos->injected_delays()),
      static_cast<unsigned long long>(chaos->injected_spikes()),
      static_cast<unsigned long long>(chaos->stall_holds()));
  std::printf("absorbed: %llu retries, %llu timeouts, %llu reconnects\n",
              static_cast<unsigned long long>(stats->retries),
              static_cast<unsigned long long>(stats->timeouts),
              static_cast<unsigned long long>(stats->reconnects));

  // Past the last window, fresh traffic must be clean.
  tb.sim().RunFor(1 * kMillisecond);
  const uint64_t failed_before = failed;
  for (int i = 0; i < 128; i++) {
    auto cb = [&](Status st) {
      completed++;
      if (!st.ok()) failed++;
    };
    if (tb.client().Read(cache, (i * 64) % (4 * kMiB), buf, 64, cb, i % 2)
            .ok()) {
      submitted++;
    }
  }
  while (completed < submitted && tb.sim().Step()) {
  }
  std::printf("after recovery: %llu new failures\n",
              static_cast<unsigned long long>(failed - failed_before));
  return failed != failed_before ? 1 : 0;
}
