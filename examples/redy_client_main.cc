// Redy cache client process: dials a running redy_server_main, creates
// a cache through the cross-process control plane, and runs a short
// YCSB-B-style workload (95% reads / 5% writes) over the socket data
// path, reporting wall-clock throughput and latency percentiles.
//
//   ./build/examples/example_redy_server_main &
//   ./build/examples/example_redy_client_main --ops=20000
//   ./build/examples/example_redy_client_main --one-sided --record-bytes=8192
//
// By default the cache is two-sided and batched, RdmaConfig{1,1,4,8};
// --one-sided creates it one-sided, RdmaConfig{1,0,1,16}, so every op is
// a one-sided READ or WRITE served by the server process's epoll workers.
//
// The unmodified CacheClient runs here: it talks to a
// transport::RemoteCacheManager (control RPCs over --control-port) and
// the data path rides queue pairs dialed against the server's data
// port. Topology flags must match the server process.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/vm_allocator.h"
#include "common/random.h"
#include "net/fabric_params.h"
#include "net/topology.h"
#include "redy/cache_client.h"
#include "telemetry/telemetry.h"
#include "transport/remote_control.h"
#include "transport/socket_fabric.h"
#include "transport/wall_clock.h"

using namespace redy;

namespace {

uint64_t FlagU64(int argc, char** argv, const char* name, uint64_t def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoull(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

std::string FlagStr(int argc, char** argv, const char* name,
                    const std::string& def) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; i++) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return def;
}

bool FlagSet(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; i++) {
    if (flag == argv[i]) return true;
  }
  return false;
}

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const size_t i = static_cast<size_t>(p * (v->size() - 1));
  return (*v)[i];
}

}  // namespace

int main(int argc, char** argv) {
  const std::string host = FlagStr(argc, argv, "host", "127.0.0.1");
  const uint16_t control_port =
      static_cast<uint16_t>(FlagU64(argc, argv, "control-port", 7471));
  const int pods = static_cast<int>(FlagU64(argc, argv, "pods", 1));
  const int racks = static_cast<int>(FlagU64(argc, argv, "racks", 1));
  const int servers = static_cast<int>(FlagU64(argc, argv, "servers", 4));
  const uint64_t total_ops = FlagU64(argc, argv, "ops", 20'000);
  const uint32_t record_bytes =
      static_cast<uint32_t>(FlagU64(argc, argv, "record-bytes", 1024));
  const uint32_t window =
      static_cast<uint32_t>(FlagU64(argc, argv, "outstanding", 4));
  const bool one_sided = FlagSet(argc, argv, "one-sided");

  sim::Simulation sim;
  transport::WallClockDriver driver(&sim);
  driver.Start();

  std::unique_ptr<telemetry::Telemetry> telemetry;
  std::unique_ptr<transport::SocketFabric> fabric;
  std::unique_ptr<cluster::VmAllocator> allocator;
  std::unique_ptr<transport::RemoteCacheManager> manager;
  std::unique_ptr<CacheClient> client;
  driver.Call([&] {
    net::Topology topo(pods, racks, servers);
    telemetry = std::make_unique<telemetry::Telemetry>(&sim);
    transport::SocketFabric::Options fopts;  // ephemeral data port
    fabric = std::make_unique<transport::SocketFabric>(
        &sim, &driver, topo, net::FabricParams{}, fopts);
    fabric->set_telemetry(telemetry.get());
    allocator = std::make_unique<cluster::VmAllocator>(
        &sim, &fabric->topology(), 64, 8 * kGiB, 30 * kSecond);
    manager = std::make_unique<transport::RemoteCacheManager>(
        &sim, fabric.get(), allocator.get(), host, control_port);
    CacheClient::Options copts;
    copts.region_bytes = 8 * kMiB;
    copts.telemetry = telemetry.get();
    client = std::make_unique<CacheClient>(&sim, fabric.get(),
                                           manager.get(), /*app_node=*/0,
                                           copts);
  });
  if (!manager->connected()) {
    std::printf("redy_client: cannot reach %s:%u — is redy_server_main "
                "running?\n",
                host.c_str(), control_port);
    driver.Stop();
    return 1;
  }
  std::printf("redy_client: control %s:%u, server data port %u\n",
              host.c_str(), control_port, manager->data_port());

  // Create the cache through the remote manager. Two-sided: one client
  // thread, one server thread, batch size 4, so ops ride the rings.
  // One-sided: no server thread, so every op rides the responder path.
  const RdmaConfig config =
      one_sided ? RdmaConfig{1, 0, 1, 16} : RdmaConfig{1, 1, 4, 8};
  const auto cache_or = driver.Call([&] {
    return client->CreateWithConfig(16 * kMiB, config, record_bytes);
  });
  if (!cache_or.ok()) {
    std::printf("redy_client: Create failed: %s\n",
                cache_or.status().ToString().c_str());
    driver.Stop();
    return 1;
  }
  const CacheClient::CacheId cache = *cache_or;
  std::printf("redy_client: cache %llu created (%u B records, %s)\n",
              static_cast<unsigned long long>(cache), record_bytes,
              config.ToString().c_str());

  // YCSB-B over the wall clock: issue ops in windows of `outstanding`,
  // measuring per-op latency from post to completion callback.
  const uint64_t kRecords = (8 * kMiB) / record_bytes;
  std::vector<uint8_t> buf(record_bytes, 0xA5);
  std::vector<double> lat_us;
  lat_us.reserve(total_ops);
  Rng rng(42);
  uint64_t issued = 0;
  std::atomic<uint64_t> completed{0}, failed{0};
  const uint64_t t0 = transport::WallClockDriver::MonotonicNs();
  while (completed < total_ops) {
    driver.Call([&] {
      while (issued < total_ops && issued - completed < window) {
        const uint64_t addr =
            (rng.Next() % kRecords) * record_bytes;
        const bool is_read = rng.NextDouble() < 0.95;
        const uint64_t start = transport::WallClockDriver::MonotonicNs();
        auto done = [&, start](Status st) {
          completed++;
          if (!st.ok()) failed++;
          lat_us.push_back(
              (transport::WallClockDriver::MonotonicNs() - start) / 1e3);
        };
        if (is_read) {
          client->Read(cache, addr, buf.data(), record_bytes,
                       std::move(done));
        } else {
          client->Write(cache, addr, buf.data(), record_bytes,
                        std::move(done));
        }
        issued++;
      }
    });
    // Completions arrive on the loop; yield briefly between windows.
    ::usleep(50);
  }
  const double secs =
      (transport::WallClockDriver::MonotonicNs() - t0) / 1e9;
  driver.Call([] {});  // synchronize: all completion writes now visible

  const double p50 = Percentile(&lat_us, 0.50);
  const double p99 = Percentile(&lat_us, 0.99);
  std::printf("redy_client: %llu ops in %.2f s — %.0f ops/s, p50 %.1f us, "
              "p99 %.1f us, %llu failed\n",
              static_cast<unsigned long long>(completed), secs,
              completed / secs, p50, p99,
              static_cast<unsigned long long>(failed));

  driver.Call([&] { client->Delete(cache); });
  fabric->ShutdownTransport();
  driver.Stop();
  client.reset();
  manager.reset();
  allocator.reset();
  fabric.reset();
  telemetry.reset();
  return failed == 0 ? 0 : 1;
}
