#ifndef REDY_BENCH_FASTER_BENCH_H_
#define REDY_BENCH_FASTER_BENCH_H_

// Shared harness for the Section 8 FASTER experiments (Figs. 18-20):
// builds a FASTER store over one of the three devices the paper
// compares — a Redy-fronted tiered device, SMB Direct, or a local SSD —
// and runs YCSB on it.
//
// Scale note (DESIGN.md / EXPERIMENTS.md): the paper's 250M-record
// (~6 GB) database and 1-8 GB caches are scaled by ~64x (devices store
// real bytes); every ratio that drives the figures — local memory /
// database, Redy cache / database — is preserved.

#include <memory>

#include "bench_common.h"
#include "common/logging.h"
#include "faster/devices.h"
#include "faster/redy_device.h"
#include "faster/store.h"
#include "faster/tiered_device.h"
#include "ycsb/driver.h"

namespace redy::bench {

enum class DeviceKind { kRedy, kSmbDirect, kSsd };

inline const char* DeviceName(DeviceKind k) {
  switch (k) {
    case DeviceKind::kRedy:
      return "redy";
    case DeviceKind::kSmbDirect:
      return "smb-direct";
    case DeviceKind::kSsd:
      return "ssd";
  }
  return "?";
}

/// One fully assembled FASTER-over-device stack.
struct FasterStack {
  std::unique_ptr<Testbed> tb;
  std::unique_ptr<faster::SsdDevice> ssd;
  std::unique_ptr<faster::SmbDirectDevice> smb;
  std::unique_ptr<faster::RedyDevice> redy;
  std::unique_ptr<faster::TieredDevice> tiered;
  std::unique_ptr<faster::FasterKv> kv;
};

struct FasterStackOptions {
  DeviceKind device = DeviceKind::kRedy;
  uint64_t db_bytes = 32 * kMiB;
  /// FASTER's local memory, split between the hybrid-log tail and the
  /// hot-record cache.
  uint64_t local_memory_bytes = 8 * kMiB;
  uint64_t redy_cache_bytes = 32 * kMiB;  // the first tier's capacity
  uint32_t value_bytes = 8;
};

inline FasterStack BuildFasterStack(const FasterStackOptions& o) {
  FasterStack s;
  TestbedOptions to = BenchTestbed();
  to.client.region_bytes = 8 * kMiB;
  s.tb = std::make_unique<Testbed>(to);
  s.ssd = std::make_unique<faster::SsdDevice>(&s.tb->sim());

  faster::IDevice* dev = nullptr;
  switch (o.device) {
    case DeviceKind::kSsd:
      dev = s.ssd.get();
      break;
    case DeviceKind::kSmbDirect:
      s.smb = std::make_unique<faster::SmbDirectDevice>(&s.tb->sim());
      dev = s.smb.get();
      break;
    case DeviceKind::kRedy: {
      // Throughput-oriented cache configuration (Section 8.3) sized to
      // the requested first-tier capacity; SSD is the second tier
      // holding the entire log (Fig. 17).
      auto id = s.tb->client().CreateWithConfig(
          std::max<uint64_t>(o.redy_cache_bytes, 8 * kMiB),
          RdmaConfig{4, 2, 16, 8}, static_cast<uint32_t>(8 + o.value_bytes));
      REDY_CHECK(id.ok());
      s.redy = std::make_unique<faster::RedyDevice>(
          &s.tb->sim(), &s.tb->client(), *id, o.redy_cache_bytes);
      s.tiered = std::make_unique<faster::TieredDevice>(
          std::vector<faster::IDevice*>{s.redy.get(), s.ssd.get()},
          /*commit_point=*/1);
      dev = s.tiered.get();
      break;
    }
  }

  faster::FasterKv::Options fo;
  if (o.local_memory_bytes >= o.db_bytes + o.db_bytes / 8) {
    // Local memory fits the entire log: FASTER keeps the whole hybrid
    // log in its in-memory window and no device reads happen at all
    // (the Fig. 19 "8 GB" operating point).
    fo.log_memory_bytes = o.local_memory_bytes;
    fo.read_cache_bytes = 0;
  } else {
    // A quarter of local memory holds the log tail, the rest caches
    // hot records (FASTER's use of local memory in Section 8.3).
    fo.log_memory_bytes = std::max<uint64_t>(o.local_memory_bytes / 4,
                                             64 * kKiB);
    fo.read_cache_bytes = o.local_memory_bytes > fo.log_memory_bytes
                              ? o.local_memory_bytes - fo.log_memory_bytes
                              : 0;
  }
  fo.value_bytes = o.value_bytes;
  fo.index_buckets = 1 << 21;
  s.kv = std::make_unique<faster::FasterKv>(&s.tb->sim(), dev, fo);
  return s;
}

inline ycsb::Driver::Result RunYcsb(FasterStack& s, uint32_t threads,
                                    ycsb::Distribution dist,
                                    uint64_t records,
                                    sim::SimTime window = 40 * kMillisecond) {
  ycsb::Driver::Options d;
  d.threads = threads;
  d.warmup = 8 * kMillisecond;
  d.window = window;
  d.workload.records = records;
  d.workload.distribution = dist;
  ycsb::Driver driver(&s.tb->sim(), s.kv.get(), d);
  REDY_CHECK(driver.Load().ok());
  return driver.Run();
}

}  // namespace redy::bench

#endif  // REDY_BENCH_FASTER_BENCH_H_
