// Chained-vs-unchained dependent read benchmark: the NIC op-chain
// fast path (one doorbell resolves a remote pointer chase) against the
// classic client-driven chase (one round trip per hop), measured in
// *simulated* time so the numbers are deterministic and committable.
//
//  1. Raw verbs arm: a two-hop pointer chase on one QP — READ the 8 B
//     pointer word, then READ `size` bytes at the offset it names.
//     Unchained issues the second READ only after the first completion
//     reaches the client; chained posts both as one PostChain doorbell
//     and the responder NIC feeds hop 1's address from hop 0's payload.
//     Sizes 64 B .. 4 KB, alongside the fig11/fig12 sweep.
//  2. Client arm: CacheClient::ReadIndirect on the sim Testbed at the
//     paper's testbed distance, with Options::chain_reads off (two
//     dependent one-sided round trips, one poller wakeup per hop) vs
//     on (one chained doorbell, parked poller wakes once).
//
// Flags (same harness as data_path_bench / BENCH_data_path.json):
//   --out=<path>       JSON output (default BENCH_chain.json)
//   --baseline=<path>  committed baseline; exit 1 on a >20% ratio drop
//   --gate             enforce the absolute acceptance floor: the
//                      client-arm 64 B two-hop read must be >=1.6x
//                      faster chained than unchained

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "rdma/queue_pair.h"
#include "redy/testbed.h"

using namespace redy;

namespace {

struct ChainPoint {
  std::string name;
  double unchained_p50_us = 0;
  double chained_p50_us = 0;
  double ratio = 0;  // unchained / chained: >1 means chaining wins
};

// ---------------------------------------------------------------------------
// Raw verbs arm: two-hop chase on one QP, fig11-style serial latency.
// ---------------------------------------------------------------------------

constexpr uint64_t kPtrOff = 256;     // where the 8 B pointer word lives
constexpr uint64_t kDataOff = 8192;   // where it points
constexpr int kIters = 200;

double RawChaseP50Us(bool chained, uint32_t bytes) {
  sim::Simulation sim;
  rdma::Fabric fabric(&sim, net::Topology(2, 2, 8));
  rdma::Nic* c = fabric.NicAt(0);
  rdma::Nic* s = fabric.NicAt(1);
  rdma::QueuePair* qp = c->CreateQueuePair(16);
  rdma::QueuePair* peer = s->CreateQueuePair(16);
  (void)qp->Connect(peer);
  rdma::MemoryRegion* local = c->RegisterMemory(64 * kKiB);
  rdma::MemoryRegion* remote = s->RegisterMemory(64 * kKiB);
  const uint64_t word = kDataOff;
  std::memcpy(remote->data() + kPtrOff, &word, sizeof(word));

  Histogram h;
  for (int i = 0; i < kIters; i++) {
    const sim::SimTime start = sim.Now();
    rdma::WorkCompletion wc;
    if (chained) {
      rdma::ChainHop hops[2];
      hops[0].key = remote->remote_key();
      hops[0].remote_offset = kPtrOff;
      hops[0].local_offset = 0;
      hops[0].len = 8;
      hops[1].key = remote->remote_key();
      hops[1].remote_offset = 0;  // + chased word
      hops[1].local_offset = 8;
      hops[1].len = bytes;
      hops[1].addr_from_prev = true;
      REDY_CHECK(qp->PostChain(i, local, hops, 2).ok());
      sim.Run();
      REDY_CHECK(qp->send_cq().Poll(&wc, 1) == 1);
    } else {
      REDY_CHECK(
          qp->PostRead(i, local, 0, remote->remote_key(), kPtrOff, 8).ok());
      sim.Run();
      REDY_CHECK(qp->send_cq().Poll(&wc, 1) == 1);
      uint64_t chased = 0;
      std::memcpy(&chased, local->data(), sizeof(chased));
      REDY_CHECK(qp->PostRead(i, local, 8, remote->remote_key(), chased,
                              bytes)
                     .ok());
      sim.Run();
      REDY_CHECK(qp->send_cq().Poll(&wc, 1) == 1);
    }
    REDY_CHECK(wc.status == StatusCode::kOk);
    h.Add(wc.completed_at - start);
  }
  return h.Percentile(0.5) / 1e3;
}

// ---------------------------------------------------------------------------
// Client arm: ReadIndirect end to end on the sim Testbed, serial ops.
// ---------------------------------------------------------------------------

double ClientChaseP50Us(bool chain_reads, uint32_t bytes) {
  TestbedOptions to = bench::BenchTestbed();
  to.client.chain_reads = chain_reads;
  Testbed tb(to);
  sim::Simulation& sim = tb.sim();
  CacheClient& client = tb.client();

  auto id = client.CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 4},
                                    /*record_bytes=*/64);
  REDY_CHECK(id.ok());

  std::vector<uint8_t> data(bytes, 0xAB);
  const uint64_t ptr_word = kDataOff;
  int writes_done = 0;
  auto wrote = [&](Status st) {
    REDY_CHECK(st.ok());
    writes_done++;
  };
  REDY_CHECK(client.Write(*id, kDataOff, data.data(), bytes, wrote).ok());
  REDY_CHECK(
      client.Write(*id, kPtrOff, &ptr_word, sizeof(ptr_word), wrote).ok());
  while (writes_done < 2 && sim.Step()) {
  }
  REDY_CHECK(writes_done == 2);

  std::vector<uint8_t> out(bytes);
  Histogram h;
  for (int i = 0; i < kIters; i++) {
    bool done = false;
    sim::SimTime end = 0;
    const sim::SimTime start = sim.Now();
    REDY_CHECK(client
                   .ReadIndirect(*id, kPtrOff, out.data(), bytes,
                                 [&](Status st) {
                                   REDY_CHECK(st.ok());
                                   end = sim.Now();
                                   done = true;
                                 })
                   .ok());
    while (!done && sim.Step()) {
    }
    REDY_CHECK(done);
    h.Add(end - start);
  }
  REDY_CHECK(std::memcmp(out.data(), data.data(), bytes) == 0);
  return h.Percentile(0.5) / 1e3;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_chain.json";
  std::string baseline_path;
  bool gate = false;
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
    if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    }
    if (std::strcmp(argv[i], "--gate") == 0) gate = true;
  }

  bench::PrintHeader("Chained vs unchained dependent reads",
                     "NIC op chains: one-doorbell pointer chases");

  std::vector<ChainPoint> points;
  std::printf("%-12s | %14s %14s | %6s\n", "scenario", "unchained p50",
              "chained p50", "ratio");
  for (uint32_t size : {64u, 256u, 1024u, 4096u}) {
    ChainPoint p;
    p.name = "raw_" + std::to_string(size);
    p.unchained_p50_us = RawChaseP50Us(false, size);
    p.chained_p50_us = RawChaseP50Us(true, size);
    p.ratio = p.unchained_p50_us / p.chained_p50_us;
    std::printf("%-12s | %11.2f us %11.2f us | %5.2fx\n", p.name.c_str(),
                p.unchained_p50_us, p.chained_p50_us, p.ratio);
    points.push_back(p);
  }
  {
    ChainPoint p;
    p.name = "client_64";
    p.unchained_p50_us = ClientChaseP50Us(false, 64);
    p.chained_p50_us = ClientChaseP50Us(true, 64);
    p.ratio = p.unchained_p50_us / p.chained_p50_us;
    std::printf("%-12s | %11.2f us %11.2f us | %5.2fx\n", p.name.c_str(),
                p.unchained_p50_us, p.chained_p50_us, p.ratio);
    points.push_back(p);
  }

  std::ostringstream json;
  json << "{\n";
  for (size_t i = 0; i < points.size(); i++) {
    const ChainPoint& p = points[i];
    json << "  \"" << p.name
         << "\": {\"unchained_p50_us\": " << p.unchained_p50_us
         << ", \"chained_p50_us\": " << p.chained_p50_us
         << ", \"ratio\": " << p.ratio << "}"
         << (i + 1 < points.size() ? ",\n" : "\n");
  }
  json << "}\n";
  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::printf("wrote %s\n", out_path.c_str());

  bool ok = true;

  // Acceptance floor: one chained doorbell must beat the two-round-trip
  // chase >=1.6x on the 64 B client read (the path PR 10 collapses).
  if (gate) {
    for (const ChainPoint& p : points) {
      if (p.name == "client_64" && p.ratio < 1.6) {
        std::fprintf(stderr, "FAIL: client_64 ratio %.2fx < 1.6x floor\n",
                     p.ratio);
        ok = false;
      }
      if (p.ratio <= 1.0) {
        std::fprintf(stderr, "FAIL: %s chaining slower than unchained "
                             "(%.2fx)\n",
                     p.name.c_str(), p.ratio);
        ok = false;
      }
    }
  }

  // Regression gate against the committed baseline. Simulated time is
  // deterministic, so unlike the wall-clock benches every ratio gates;
  // the 20% slack only absorbs intentional cost-model retunes.
  if (!baseline_path.empty()) {
    const std::string base = bench::ReadFileOrEmpty(baseline_path);
    if (base.empty()) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   baseline_path.c_str());
      ok = false;
    } else {
      constexpr double kRatioCap = 20.0;
      for (const ChainPoint& p : points) {
        const double want = bench::BaselineField(base, p.name, "ratio");
        if (want <= 0) continue;
        const double have = std::min(p.ratio, kRatioCap);
        if (have < 0.8 * std::min(want, kRatioCap)) {
          std::fprintf(stderr,
                       "FAIL: %s ratio %.2fx regressed >20%% vs baseline "
                       "%.2fx\n",
                       p.name.c_str(), p.ratio, want);
          ok = false;
        } else {
          std::printf("%-12s vs baseline %.2fx: ok\n", p.name.c_str(),
                      want);
        }
      }
    }
  }
  return ok ? 0 : 1;
}
