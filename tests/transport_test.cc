// Tests of the real-transport backend (DESIGN.md §13): the wall-clock
// driver's park/wake arm, and a slice of the rdma_test.cc /
// redy_cache_test.cc surface parameterized over BOTH backends — the
// deterministic simulator and the socket transport, whose queue pairs
// run over an in-process socketpair or, as across processes, over TCP —
// so the verbs contract (data movement, in-order completions, queue
// depth, epoch fencing, error flushes) is pinned to be
// backend-independent.
// Everything here is bounded to a few wall-clock seconds: this file is
// the tier-1 loopback smoke test.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "net/topology.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "redy/testbed.h"
#include "sim/simulation.h"
#include "transport/loopback.h"
#include "transport/socket_fabric.h"
#include "transport/wall_clock.h"
#include "transport/worker_pool.h"

namespace redy {
namespace {

using rdma::MemoryRegion;
using rdma::Nic;
using rdma::QueuePair;
using rdma::WorkCompletion;
using transport::LoopbackRig;
using transport::LoopbackRigOptions;
using transport::SocketFabric;
using transport::WallClockDriver;

bool SpinUntil(const std::function<bool()>& pred, uint64_t timeout_ms) {
  const uint64_t deadline =
      WallClockDriver::MonotonicNs() + timeout_ms * 1'000'000ull;
  while (!pred()) {
    if (WallClockDriver::MonotonicNs() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Satellite: the park/wake machinery has a real futex arm.

TEST(WallClockDriverTest, IdleLoopParksAndPostWakesIt) {
  sim::Simulation sim;
  WallClockDriver driver(&sim);
  driver.Start();
  // With an empty event queue the loop must park (block in epoll_wait),
  // not spin.
  ASSERT_TRUE(SpinUntil([&] { return driver.idle_blocks() > 0; }, 2'000))
      << "idle driver never parked";
  const uint64_t wakeups_before = driver.wakeups();
  std::atomic<bool> ran{false};
  driver.Post([&] { ran.store(true, std::memory_order_release); });
  ASSERT_TRUE(SpinUntil([&] { return ran.load(std::memory_order_acquire); },
                        2'000))
      << "posted work did not run";
  // The post found the loop parked (or about to park) and woke it
  // through the eventfd doorbell.
  EXPECT_TRUE(SpinUntil([&] { return driver.wakeups() > wakeups_before; },
                        2'000));
  driver.Stop();
}

TEST(WallClockDriverTest, TimersFireAgainstTheWallClock) {
  sim::Simulation sim;
  WallClockDriver driver(&sim);
  std::atomic<int> fired{0};
  driver.Start();
  driver.Call([&] {
    sim.After(2 * kMillisecond, [&] { fired.fetch_add(1); });
  });
  ASSERT_TRUE(SpinUntil([&] { return fired.load() >= 1; }, 2'000));
  driver.Stop();
}

// Doorbells are rung only for a parked consumer, so a post racing the
// consumer's park must never be stranded. A stranded post would still
// run when the park times out; each round's deadline is well under
// that, so stranding fails the test instead of hiding behind the
// timeout.
constexpr uint64_t kStrandDeadlineMs = WallClockDriver::kMaxParkMs / 2;

TEST(WallClockDriverTest, PostsRacingTheParkAllRunPromptly) {
  sim::Simulation sim;
  WallClockDriver driver(&sim);
  driver.Start();
  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  std::atomic<uint64_t> ran{0};
  uint64_t expected = 0;
  for (int round = 0; round < kRounds; round++) {
    // Odd rounds keep the loop busy with slow callables and back-to-back
    // posts; even rounds post sparsely, with gaps past the spin budget,
    // so posts land while the loop is spinning, parking or parked.
    const bool busy = round % 2 == 1;
    const int per_thread = busy ? 64 : 6;
    std::vector<std::thread> posters;
    for (int t = 0; t < kThreads; t++) {
      posters.emplace_back([&, t] {
        for (int i = 0; i < per_thread; i++) {
          driver.Post([&ran, busy] {
            if (busy) {
              const uint64_t until = WallClockDriver::MonotonicNs() + 2'000;
              while (WallClockDriver::MonotonicNs() < until) {
              }
            }
            ran.fetch_add(1, std::memory_order_relaxed);
          });
          if (!busy && (i + t) % 2 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(40 * t + 30));
          }
        }
      });
    }
    for (auto& th : posters) th.join();
    expected += static_cast<uint64_t>(kThreads * per_thread);
    ASSERT_TRUE(SpinUntil([&] { return ran.load() == expected; },
                          kStrandDeadlineMs))
        << "round " << round << ": " << ran.load() << " of " << expected
        << " posts ran";
  }
  EXPECT_GT(driver.idle_blocks(), 0u) << "the loop never parked";
  driver.Stop();
  EXPECT_EQ(ran.load(), expected);
}

TEST(WorkerPoolTest, SendsRacingTheParkAllArriveInOrder) {
  // Two workers: the sending end of a socketpair lands on worker 0, the
  // receiving end on worker 1. Threads other than worker 0 Send(), so
  // every frame crosses the command queue and its park handshake, then
  // wakes worker 1 through the socket.
  constexpr int kThreads = 3;
  constexpr int kRounds = 60;
  std::atomic<uint64_t> received{0};
  std::atomic<bool> in_order{true};
  std::vector<uint64_t> next_seq(kThreads, 0);  // receiving worker only
  int sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
  transport::WorkerPool pool(2);
  transport::WorkerPool::Handlers handlers;
  handlers.on_frame = [&](transport::WorkerPool::ConnId, uint64_t,
                          const transport::FrameHeader& hdr,
                          std::vector<uint8_t> payload) {
    const uint64_t t = hdr.token >> 32;
    const uint64_t seq = hdr.token & 0xffffffffu;
    if (t >= kThreads || next_seq[t] != seq || payload.size() != 24) {
      in_order.store(false, std::memory_order_relaxed);
    } else {
      next_seq[t]++;
    }
    received.fetch_add(1, std::memory_order_release);
  };
  pool.Start(std::move(handlers));
  const transport::WorkerPool::ConnId tx = pool.AddConnection(sv[0], 0);
  pool.AddConnection(sv[1], 0);
  std::vector<uint32_t> sent(kThreads, 0);
  uint64_t expected = 0;
  for (int round = 0; round < kRounds; round++) {
    const bool busy = round % 2 == 1;
    const int per_thread = busy ? 64 : 6;
    std::vector<std::thread> senders;
    for (int t = 0; t < kThreads; t++) {
      senders.emplace_back([&, t] {
        const uint8_t body[24] = {};
        for (int i = 0; i < per_thread; i++) {
          transport::FrameHeader h;
          h.type = static_cast<uint8_t>(transport::FrameType::kWrite);
          h.token = (static_cast<uint64_t>(t) << 32) | sent[t]++;
          pool.Send(tx, transport::EncodeFrame(h, body, sizeof(body)));
          if (!busy && (i + t) % 2 == 0) {
            std::this_thread::sleep_for(std::chrono::microseconds(40 * t + 30));
          }
        }
      });
    }
    for (auto& th : senders) th.join();
    expected += static_cast<uint64_t>(kThreads * per_thread);
    ASSERT_TRUE(SpinUntil(
        [&] { return received.load(std::memory_order_acquire) == expected; },
        kStrandDeadlineMs))
        << "round " << round << ": " << received.load() << " of " << expected
        << " frames arrived";
  }
  pool.Stop();
  EXPECT_EQ(received.load(), expected);
  EXPECT_TRUE(in_order.load()) << "a sender's frames arrived out of order";
}

// ---------------------------------------------------------------------------
// Backend-parameterized verbs tests (satellite: the same contract slice
// runs on the simulator and over real sockets).

/// kSocket joins client and server queue pairs in one fabric, so they
/// share a socketpair. kSocketTcp puts the server in a second fabric
/// and connects through a remote endpoint descriptor, so every frame
/// crosses loopback TCP exactly as between two processes.
enum class Backend { kSim, kSocket, kSocketTcp };

/// Uniform driver for all worlds. Run() executes a functor in the
/// backend's single-threaded context (inline for the simulator, on the
/// loop thread for the socket backend); Await() pumps the backend until
/// the predicate holds.
class BackendHarness {
 public:
  virtual ~BackendHarness() = default;
  virtual rdma::Fabric& client_fabric() = 0;
  virtual rdma::Fabric& server_fabric() { return client_fabric(); }
  /// Connects a client-fabric QP to a server-fabric QP. Loop thread.
  virtual Status Connect(QueuePair* cq, QueuePair* sq) {
    return cq->Connect(sq);
  }
  virtual void Run(const std::function<void()>& fn) = 0;
  virtual bool Await(const std::function<bool()>& pred) = 0;
};

class SimHarness : public BackendHarness {
 public:
  SimHarness() : fabric_(&sim_, net::Topology(2, 2, 4)) {}
  rdma::Fabric& client_fabric() override { return fabric_; }
  void Run(const std::function<void()>& fn) override { fn(); }
  bool Await(const std::function<bool()>& pred) override {
    sim_.Run();
    return pred();
  }

 private:
  sim::Simulation sim_;
  rdma::Fabric fabric_;
};

class SocketHarness : public BackendHarness {
 public:
  explicit SocketHarness(bool tcp) : driver_(&sim_) {
    driver_.Start();
    driver_.Call([&] {
      SocketFabric::Options opts;
      opts.workers = 2;
      fabric_ = std::make_unique<SocketFabric>(
          &sim_, &driver_, net::Topology(2, 2, 4), net::FabricParams{}, opts);
      if (tcp) {
        server_ = std::make_unique<SocketFabric>(
            &sim_, &driver_, net::Topology(2, 2, 4), net::FabricParams{},
            opts);
      }
    });
  }
  ~SocketHarness() override {
    fabric_->ShutdownTransport();
    if (server_) server_->ShutdownTransport();
    driver_.Stop();
    server_.reset();
    fabric_.reset();
  }
  rdma::Fabric& client_fabric() override { return *fabric_; }
  rdma::Fabric& server_fabric() override {
    return server_ ? *server_ : *fabric_;
  }
  Status Connect(QueuePair* cq, QueuePair* sq) override {
    if (!server_) return cq->Connect(sq);
    auto* nic = static_cast<transport::SocketNic*>(cq->nic());
    return cq->Connect(nic->CreateRemoteEndpoint(
        server_->listen_host(), server_->port(),
        static_cast<transport::SocketQueuePair*>(sq)->token()));
  }
  void Run(const std::function<void()>& fn) override { driver_.Call(fn); }
  bool Await(const std::function<bool()>& pred) override {
    const uint64_t deadline =
        WallClockDriver::MonotonicNs() + 10ull * 1'000'000'000;
    while (true) {
      if (driver_.Call(pred)) return true;
      if (WallClockDriver::MonotonicNs() >= deadline) return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  WallClockDriver& driver() { return driver_; }

 private:
  sim::Simulation sim_;
  WallClockDriver driver_;
  std::unique_ptr<SocketFabric> fabric_;
  std::unique_ptr<SocketFabric> server_;  // kSocketTcp only
};

class BackendRdmaTest : public ::testing::TestWithParam<Backend> {
 protected:
  BackendRdmaTest() {
    if (GetParam() == Backend::kSim) {
      harness_ = std::make_unique<SimHarness>();
    } else {
      harness_ =
          std::make_unique<SocketHarness>(GetParam() == Backend::kSocketTcp);
    }
    harness_->Run([&] {
      client_nic_ = harness_->client_fabric().NicAt(0);
      server_nic_ = harness_->server_fabric().NicAt(1);
      cqp_ = client_nic_->CreateQueuePair(16);
      sqp_ = server_nic_->CreateQueuePair(16);
      connect_ok_ = harness_->Connect(cqp_, sqp_).ok();
      local_ = client_nic_->RegisterMemory(64 * kKiB);
      remote_ = server_nic_->RegisterMemory(64 * kKiB);
    });
    EXPECT_TRUE(connect_ok_);
  }

  /// Pumps the backend until `n` completions surfaced on cqp_'s send CQ.
  std::vector<WorkCompletion> DrainN(size_t n) {
    std::vector<WorkCompletion> out;
    harness_->Await([&] {
      WorkCompletion wc;
      while (cqp_->send_cq().Poll(&wc, 1) == 1) out.push_back(wc);
      return out.size() >= n;
    });
    return out;
  }

  std::unique_ptr<BackendHarness> harness_;
  Nic* client_nic_ = nullptr;
  Nic* server_nic_ = nullptr;
  QueuePair* cqp_ = nullptr;
  QueuePair* sqp_ = nullptr;
  MemoryRegion* local_ = nullptr;
  MemoryRegion* remote_ = nullptr;
  bool connect_ok_ = false;
};

TEST_P(BackendRdmaTest, OneSidedWriteMovesBytes) {
  const char msg[] = "hello remote memory";
  std::memcpy(local_->data() + 100, msg, sizeof(msg));
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostWrite(7, local_, 100, remote_->remote_key(), 200,
                             sizeof(msg))
                 .ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 7u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[0].opcode, rdma::Opcode::kWrite);
  EXPECT_EQ(std::memcmp(remote_->data() + 200, msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, OneSidedReadMovesBytes) {
  const char msg[] = "data on the server";
  std::memcpy(remote_->data() + 64, msg, sizeof(msg));
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostRead(9, local_, 0, remote_->remote_key(), 64,
                            sizeof(msg))
                 .ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local_->data(), msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, CompletionsArriveInPostOrder) {
  // A full queue depth of writes and reads, mixed sizes, posted in one
  // loop turn so the socket backend gathers the frames into one flush.
  // Completions must come back in post order, writes must land, and
  // reads must return the bytes that were there before the batch (the
  // two backends differ on when a read sees an earlier write to the same
  // bytes, so reads and writes touch disjoint ranges).
  constexpr uint64_t kLens[] = {8, 4096, 64, 1, 2048, 512, 3000, 4096};
  constexpr uint64_t kSlot = 4 * kKiB;
  constexpr uint64_t kReadBack = 32 * kKiB;
  auto pattern = [](uint64_t k, uint64_t b, uint64_t salt) {
    return static_cast<uint8_t>(k * 31 + b + salt);
  };
  for (uint64_t k = 0; k < 8; k++) {
    for (uint64_t b = 0; b < kLens[k]; b++) {
      local_->data()[k * kSlot + b] = pattern(k, b, 0);
      remote_->data()[(2 * k + 1) * kSlot + b] = pattern(k, b, 7);
    }
  }
  harness_->Run([&] {
    for (uint64_t k = 0; k < 8; k++) {
      EXPECT_TRUE(cqp_->PostWrite(2 * k + 1, local_, k * kSlot,
                                  remote_->remote_key(), 2 * k * kSlot,
                                  kLens[k])
                      .ok());
      EXPECT_TRUE(cqp_->PostRead(2 * k + 2, local_, kReadBack + k * kSlot,
                                 remote_->remote_key(), (2 * k + 1) * kSlot,
                                 kLens[k])
                      .ok());
    }
  });
  auto wcs = DrainN(16);
  ASSERT_EQ(wcs.size(), 16u);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kOk);
  }
  for (uint64_t k = 0; k < 8; k++) {
    EXPECT_EQ(std::memcmp(remote_->data() + 2 * k * kSlot,
                          local_->data() + k * kSlot, kLens[k]),
              0)
        << "write " << k;
    for (uint64_t b = 0; b < kLens[k]; b++) {
      ASSERT_EQ(local_->data()[kReadBack + k * kSlot + b], pattern(k, b, 7))
          << "read " << k << " byte " << b;
    }
  }
}

TEST_P(BackendRdmaTest, WritesLargerThanTheSocketBufferCompleteInOrder) {
  // 4 MiB of writes posted at once cannot fit the socket's send buffer,
  // so the socket backend's gathered send returns short and the rest
  // leaves on EPOLLOUT. Every op must still complete in order with the
  // right bytes, including reads queued behind the writes.
  constexpr uint64_t kChunk = 512 * kKiB;
  constexpr uint64_t kWrites = 8;
  constexpr uint64_t kReads = 4;
  constexpr uint64_t kTotal = (kWrites + kReads) * kChunk;
  MemoryRegion* src = nullptr;
  MemoryRegion* dst = nullptr;
  harness_->Run([&] {
    src = client_nic_->RegisterMemory(kTotal);
    dst = server_nic_->RegisterMemory(kTotal);
  });
  // Write sources and read sources carry different patterns, at the
  // same offsets of src and dst respectively.
  for (uint64_t i = 0; i < kTotal; i++) {
    src->data()[i] = static_cast<uint8_t>(i / kChunk * 7 + i % 251);
    dst->data()[i] = static_cast<uint8_t>(i / kChunk * 5 + i % 241);
  }
  std::vector<uint8_t> want_reads(dst->data() + kWrites * kChunk,
                                  dst->data() + kTotal);
  harness_->Run([&] {
    for (uint64_t k = 0; k < kWrites + kReads; k++) {
      const bool write = k < kWrites;
      const Status st =
          write ? cqp_->PostWrite(k + 1, src, k * kChunk, dst->remote_key(),
                                  k * kChunk, kChunk)
                : cqp_->PostRead(k + 1, src, k * kChunk, dst->remote_key(),
                                 k * kChunk, kChunk);
      EXPECT_TRUE(st.ok());
    }
  });
  auto wcs = DrainN(kWrites + kReads);
  ASSERT_EQ(wcs.size(), kWrites + kReads);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kOk);
  }
  EXPECT_EQ(std::memcmp(dst->data(), src->data(), kWrites * kChunk), 0);
  EXPECT_EQ(std::memcmp(src->data() + kWrites * kChunk, want_reads.data(),
                        want_reads.size()),
            0);
}

TEST_P(BackendRdmaTest, QueueDepthIsEnforced) {
  int accepted = 0;
  QueuePair* qp4 = nullptr;
  harness_->Run([&] {
    qp4 = client_nic_->CreateQueuePair(4);
    QueuePair* sqp4 = server_nic_->CreateQueuePair(4);
    EXPECT_TRUE(harness_->Connect(qp4, sqp4).ok());
    for (int i = 0; i < 10; i++) {
      if (qp4->PostWrite(i, local_, 0, remote_->remote_key(), 0, 8).ok()) {
        accepted++;
      }
    }
  });
  EXPECT_EQ(accepted, 4);
  std::vector<WorkCompletion> out;
  ASSERT_TRUE(harness_->Await([&] {
    WorkCompletion wc;
    while (qp4->send_cq().Poll(&wc, 1) == 1) out.push_back(wc);
    return out.size() >= 4;
  }));
  bool reposted = false;
  harness_->Run([&] {
    reposted =
        qp4->PostWrite(99, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  EXPECT_TRUE(reposted);
}

TEST_P(BackendRdmaTest, StaleEpochWriteIsFencedFreshKeySucceeds) {
  const rdma::RemoteKey stale = remote_->remote_key();
  std::memset(remote_->data(), 0, 16);
  std::memset(local_->data(), 0x5A, 16);
  bool posted = false;
  harness_->Run([&] {
    remote_->RevokeEpoch();
    posted = cqp_->PostWrite(1, local_, 0, stale, 0, 16).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 16; i++) {
    ASSERT_EQ(remote_->data()[i], 0) << "fenced write landed at byte " << i;
  }

  // A key minted after the revocation carries the new epoch and works.
  harness_->Run([&] {
    posted = cqp_->PostWrite(2, local_, 0, remote_->remote_key(), 0, 16).ok();
  });
  ASSERT_TRUE(posted);
  wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(remote_->data()[0], 0x5A);
}

TEST_P(BackendRdmaTest, ReadsSurviveEpochRevocation) {
  const char msg[] = "still readable";
  std::memcpy(remote_->data(), msg, sizeof(msg));
  const rdma::RemoteKey stale = remote_->remote_key();
  bool posted = false;
  harness_->Run([&] {
    remote_->RevokeEpoch();
    posted = cqp_->PostRead(1, local_, 0, stale, 0, sizeof(msg)).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local_->data(), msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, RemoteOutOfBoundsAborts) {
  MemoryRegion* tiny = nullptr;
  bool posted = false;
  harness_->Run([&] {
    tiny = server_nic_->RegisterMemory(128);
    posted = cqp_->PostWrite(1, local_, 0, tiny->remote_key(), 120, 64).ok() &&
             cqp_->PostRead(2, local_, 0, tiny->remote_key(), 120, 64).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(2);
  ASSERT_EQ(wcs.size(), 2u);
  EXPECT_EQ(wcs[0].opcode, rdma::Opcode::kWrite);
  EXPECT_EQ(wcs[0].status, StatusCode::kAborted);
  EXPECT_EQ(wcs[1].opcode, rdma::Opcode::kRead);
  EXPECT_EQ(wcs[1].status, StatusCode::kAborted);
}

TEST_P(BackendRdmaTest, ReadOfDeregisteredRegionIsProtectionError) {
  bool posted = false;
  harness_->Run([&] {
    MemoryRegion* gone = server_nic_->RegisterMemory(4096);
    const rdma::RemoteKey key = gone->remote_key();
    server_nic_->DeregisterMemory(gone);
    posted = cqp_->PostRead(1, local_, 0, key, 0, 64).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
}

TEST_P(BackendRdmaTest, ReadAfterOverlappingWriteSeesTheWrite) {
  // RC ordering: a READ observes every earlier WRITE on its QP. The
  // WRITEs go into a region with a notifier, so on the socketpair backend
  // they stay framed; the READ would otherwise run on the loop at post
  // time, before the WRITE's frame has even left.
  if (GetParam() == Backend::kSim) {
    GTEST_SKIP() << "the simulated fabric lets a header-only READ overtake "
                    "an earlier WRITE (see CompletionsArriveInPostOrder)";
  }
  // Each pair writes 64 B at slot k and reads 64 B starting halfway into
  // it, so a read returns 32 written bytes and then 32 old ones.
  constexpr uint64_t kPairs = 8;
  constexpr uint64_t kSlot = 1024;
  constexpr uint64_t kReadBack = 32 * kKiB;
  for (uint64_t i = 0; i < kPairs * kSlot; i++) {
    local_->data()[i] = static_cast<uint8_t>(i * 7 + 1);
    remote_->data()[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  std::vector<uint8_t> want(kPairs * 64);
  for (uint64_t k = 0; k < kPairs; k++) {
    std::memcpy(want.data() + k * 64, local_->data() + k * kSlot + 32, 32);
    std::memcpy(want.data() + k * 64 + 32, remote_->data() + k * kSlot + 64,
                32);
  }
  harness_->Run([&] {
    remote_->SetRemoteWriteNotifier([] {});
    for (uint64_t k = 0; k < kPairs; k++) {
      EXPECT_TRUE(cqp_->PostWrite(2 * k + 1, local_, k * kSlot,
                                  remote_->remote_key(), k * kSlot, 64)
                      .ok());
      EXPECT_TRUE(cqp_->PostRead(2 * k + 2, local_, kReadBack + k * 64,
                                 remote_->remote_key(), k * kSlot + 32, 64)
                      .ok());
    }
    remote_->SetRemoteWriteNotifier({});
  });
  auto wcs = DrainN(2 * kPairs);
  ASSERT_EQ(wcs.size(), 2 * kPairs);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kOk);
  }
  for (uint64_t k = 0; k < kPairs; k++) {
    EXPECT_EQ(std::memcmp(local_->data() + kReadBack + k * 64,
                          want.data() + k * 64, 64),
              0)
        << "read " << k << " missed the write before it";
  }
}

// The next three tests need framed ops on the socketpair backend, where
// READs and WRITEs between in-process queue pairs run on the loop at
// post time. A WRITE into a region with a remote-write notifier stays
// framed, and so does any op that must follow it, so each test posts
// its first ops while `remote_` has a notifier and clears it before the
// ops whose order it checks.

TEST_P(BackendRdmaTest, ReadBeforeOverlappingWriteNeverSeesIt) {
  // RC ordering: a READ does not observe a WRITE posted after it. Each
  // triple writes slot k (framed), reads 64 B from its middle (framed
  // behind that WRITE) and then writes the 64 B after the slot, which
  // the READ's second half covers. That last WRITE must stay framed
  // behind the READ, or it lands before the READ is served.
  constexpr uint64_t kTriples = 5;  // 15 ops: within the QP depth of 16
  constexpr uint64_t kSlot = 1024;
  constexpr uint64_t kLater = 16 * kKiB;  // sources of the later WRITEs
  constexpr uint64_t kReadBack = 32 * kKiB;
  for (uint64_t i = 0; i < kTriples * kSlot; i++) {
    local_->data()[i] = static_cast<uint8_t>(i * 7 + 1);
    local_->data()[kLater + i] = static_cast<uint8_t>(i * 11 + 3);
    remote_->data()[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  std::vector<uint8_t> old_after(kTriples * 32);
  for (uint64_t k = 0; k < kTriples; k++) {
    std::memcpy(old_after.data() + k * 32, remote_->data() + k * kSlot + 64,
                32);
  }
  harness_->Run([&] {
    remote_->SetRemoteWriteNotifier([] {});
    for (uint64_t k = 0; k < kTriples; k++) {
      EXPECT_TRUE(cqp_->PostWrite(2 * k + 1, local_, k * kSlot,
                                  remote_->remote_key(), k * kSlot, 64)
                      .ok());
      EXPECT_TRUE(cqp_->PostRead(2 * k + 2, local_, kReadBack + k * 64,
                                 remote_->remote_key(), k * kSlot + 32, 64)
                      .ok());
    }
    remote_->SetRemoteWriteNotifier({});
    for (uint64_t k = 0; k < kTriples; k++) {
      EXPECT_TRUE(cqp_->PostWrite(2 * kTriples + k + 1, local_,
                                  kLater + k * kSlot, remote_->remote_key(),
                                  k * kSlot + 64, 64)
                      .ok());
    }
  });
  auto wcs = DrainN(3 * kTriples);
  ASSERT_EQ(wcs.size(), 3 * kTriples);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kOk);
  }
  for (uint64_t k = 0; k < kTriples; k++) {
    EXPECT_EQ(std::memcmp(local_->data() + kReadBack + k * 64 + 32,
                          old_after.data() + k * 32, 32),
              0)
        << "read " << k << " saw the write posted after it";
    EXPECT_EQ(std::memcmp(remote_->data() + k * kSlot + 64,
                          local_->data() + kLater + k * kSlot, 64),
              0)
        << "later write " << k << " did not land";
  }
}

TEST_P(BackendRdmaTest, WriteBehindOverlappingFramedWriteLandsLast) {
  // Each pair writes 64 B at slot k (framed) and then 64 B starting
  // halfway into it. The second WRITE must land after the first, so the
  // overlap ends up holding the second WRITE's bytes.
  constexpr uint64_t kPairs = 8;
  constexpr uint64_t kSlot = 1024;
  constexpr uint64_t kLater = 16 * kKiB;
  for (uint64_t i = 0; i < kPairs * kSlot; i++) {
    local_->data()[i] = static_cast<uint8_t>(i * 7 + 1);
    local_->data()[kLater + i] = static_cast<uint8_t>(i * 11 + 3);
  }
  harness_->Run([&] {
    remote_->SetRemoteWriteNotifier([] {});
    for (uint64_t k = 0; k < kPairs; k++) {
      EXPECT_TRUE(cqp_->PostWrite(k + 1, local_, k * kSlot,
                                  remote_->remote_key(), k * kSlot, 64)
                      .ok());
    }
    remote_->SetRemoteWriteNotifier({});
    for (uint64_t k = 0; k < kPairs; k++) {
      EXPECT_TRUE(cqp_->PostWrite(kPairs + k + 1, local_, kLater + k * kSlot,
                                  remote_->remote_key(), k * kSlot + 32, 64)
                      .ok());
    }
  });
  auto wcs = DrainN(2 * kPairs);
  ASSERT_EQ(wcs.size(), 2 * kPairs);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kOk);
  }
  for (uint64_t k = 0; k < kPairs; k++) {
    EXPECT_EQ(std::memcmp(remote_->data() + k * kSlot,
                          local_->data() + k * kSlot, 32),
              0)
        << "first write " << k;
    EXPECT_EQ(std::memcmp(remote_->data() + k * kSlot + 32,
                          local_->data() + kLater + k * kSlot, 64),
              0)
        << "write " << k << " was overwritten by the write before it";
  }
}

TEST_P(BackendRdmaTest, MixedDirectAndFramedOpsCompleteInPostOrder) {
  // WRITEs into a region with a notifier stay framed and are acked by a
  // worker, while READs and WRITEs on `remote_` run on the loop at post
  // time on the socketpair backend. Their completions must still come
  // back in post order.
  constexpr uint64_t kOps = 15;
  constexpr uint64_t kSlot = 1024;
  constexpr uint64_t kReadBack = 32 * kKiB;
  MemoryRegion* ring = nullptr;
  for (uint64_t i = 0; i < kOps * kSlot; i++) {
    local_->data()[i] = static_cast<uint8_t>(i * 7 + 1);
    remote_->data()[kReadBack + i] = static_cast<uint8_t>(i * 13 + 5);
  }
  harness_->Run([&] {
    ring = server_nic_->RegisterMemory(kOps * kSlot);
    ring->SetRemoteWriteNotifier([] {});
    for (uint64_t k = 0; k < kOps; k++) {
      Status st;
      switch (k % 3) {
        case 0:
          st = cqp_->PostWrite(k + 1, local_, k * kSlot, ring->remote_key(),
                               k * kSlot, kSlot);
          break;
        case 1:
          st = cqp_->PostWrite(k + 1, local_, k * kSlot,
                               remote_->remote_key(), k * kSlot, kSlot);
          break;
        default:
          st = cqp_->PostRead(k + 1, local_, kReadBack + k * kSlot,
                              remote_->remote_key(), kReadBack + k * kSlot,
                              kSlot);
      }
      EXPECT_TRUE(st.ok()) << "op " << k;
    }
  });
  auto wcs = DrainN(kOps);
  ASSERT_EQ(wcs.size(), kOps);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kOk);
    EXPECT_EQ(wcs[i].opcode,
              i % 3 == 2 ? rdma::Opcode::kRead : rdma::Opcode::kWrite);
  }
  for (uint64_t k = 0; k < kOps; k++) {
    const uint8_t* landed =
        k % 3 == 0 ? ring->data() + k * kSlot
        : k % 3 == 1 ? remote_->data() + k * kSlot
                     : local_->data() + kReadBack + k * kSlot;
    const uint8_t* want = k % 3 == 2 ? remote_->data() + kReadBack + k * kSlot
                                     : local_->data() + k * kSlot;
    EXPECT_EQ(std::memcmp(landed, want, kSlot), 0) << "op " << k;
  }
}

TEST_P(BackendRdmaTest, WriteIntoNotifiedRegionFiresTheNotifierOnce) {
  // Pins the scope of the direct WRITE: a region with a remote-write
  // notifier is a polled ring, and its poller must wake once per WRITE.
  // On the socket backend such a WRITE stays framed, and the worker that
  // applies it asks the loop to run the notifier.
  int fired = 0;
  const char msg[] = "into a polled ring";
  std::memcpy(local_->data(), msg, sizeof(msg));
  bool posted = false;
  harness_->Run([&] {
    remote_->SetRemoteWriteNotifier([&fired] { fired++; });
    posted = cqp_->PostWrite(1, local_, 0, remote_->remote_key(), 128,
                             sizeof(msg))
                 .ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_TRUE(harness_->Await([&] { return fired >= 1; }));
  int fired_after = 0;
  harness_->Run([&] {
    fired_after = fired;
    remote_->SetRemoteWriteNotifier({});
  });
  EXPECT_EQ(fired_after, 1);
  EXPECT_EQ(std::memcmp(remote_->data() + 128, msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, WriteToDeregisteredRegionIsProtectionError) {
  bool posted = false;
  harness_->Run([&] {
    MemoryRegion* gone = server_nic_->RegisterMemory(4096);
    const rdma::RemoteKey key = gone->remote_key();
    server_nic_->DeregisterMemory(gone);
    posted = cqp_->PostWrite(1, local_, 0, key, 0, 64).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
}

// ---------------------------------------------------------------------------
// NIC-offloaded op chains (DESIGN.md §15): one doorbell drives a
// dependent multi-op sequence on the responder NIC; the client sees a
// single completion (and thus a single poller wakeup) per chain.

TEST_P(BackendRdmaTest, ChainPointerChaseFollowsMaskedRemotePointer) {
  // Remote layout: a tagged pointer word at offset 256 whose upper bits
  // name the data offset (<< 4, low nibble is tag bits the mask strips).
  const char msg[] = "chased through the NIC";
  constexpr uint64_t kDataOff = 1024;
  std::memcpy(remote_->data() + kDataOff, msg, sizeof(msg));
  const uint64_t word = (kDataOff << 4) | 0x9;  // tag bits must be masked
  std::memcpy(remote_->data() + 256, &word, sizeof(word));

  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].remote_offset = 256;
  hops[0].local_offset = 0;
  hops[0].len = 8;
  hops[1].key = remote_->remote_key();
  hops[1].remote_offset = 0;
  hops[1].local_offset = 64;
  hops[1].len = sizeof(msg);
  hops[1].addr_from_prev = true;
  hops[1].addr_mask = ~uint64_t{0xF};
  hops[1].addr_shift = 4;
  bool posted = false;
  harness_->Run(
      [&] { posted = cqp_->PostChain(11, local_, hops, 2).ok(); });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 11u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[0].opcode, rdma::Opcode::kChain);
  // Both read hops landed: the pointer word and the chased payload.
  EXPECT_EQ(wcs[0].byte_len, 8 + sizeof(msg));
  uint64_t landed_word = 0;
  std::memcpy(&landed_word, local_->data(), sizeof(landed_word));
  EXPECT_EQ(landed_word, word);
  EXPECT_EQ(std::memcmp(local_->data() + 64, msg, sizeof(msg)), 0);
}

TEST_P(BackendRdmaTest, ChainAbortsOnStaleEpochMidChainWithZeroBytes) {
  // Hop 0 is fine; hop 1 carries a stale epoch; hop 2 would read. The
  // chain must deliver ONE poisoned completion with byte_len 0, land no
  // bytes locally, and never run hop 2.
  const uint64_t word = 512;
  std::memcpy(remote_->data(), &word, sizeof(word));
  std::memset(remote_->data() + 2048, 0x3C, 16);
  std::memset(local_->data(), 0, 128);
  std::memset(local_->data() + 128, 0x7C, 16);  // hop 2's landing sentinel
  rdma::RemoteKey stale = remote_->remote_key();
  stale.epoch -= 1;  // models racing an epoch bump between hops
  rdma::ChainHop hops[3];
  hops[0].key = remote_->remote_key();
  hops[0].remote_offset = 0;
  hops[0].local_offset = 0;
  hops[0].len = 8;
  hops[1].key = stale;
  hops[1].remote_offset = 0;
  hops[1].local_offset = 64;
  hops[1].len = 64;
  hops[1].addr_from_prev = true;
  hops[2].key = remote_->remote_key();
  hops[2].remote_offset = 2048;
  hops[2].local_offset = 128;
  hops[2].len = 16;
  bool posted = false;
  harness_->Run(
      [&] { posted = cqp_->PostChain(13, local_, hops, 3).ok(); });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 13u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  EXPECT_EQ(wcs[0].byte_len, 0u);
  // Zero bytes touched past the fence: no payload landed locally, not
  // even hop 0's, and hop 2's landing range keeps its sentinel.
  for (int i = 0; i < 128; i++) {
    ASSERT_EQ(local_->data()[i], 0) << "aborted chain landed byte " << i;
  }
  for (int i = 0; i < 16; i++) {
    ASSERT_EQ(local_->data()[128 + i], 0x7C)
        << "tail hop landed byte " << i;
  }
  // The QP stays usable after an aborted chain.
  harness_->Run([&] {
    posted = cqp_->PostRead(14, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  ASSERT_TRUE(posted);
  wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
}

TEST_P(BackendRdmaTest, ChainDeliversExactlyOneCompletionAndOneNotify) {
  // Park-through-chain contract: a parked poller is woken once per
  // chain, not once per hop. Counted at the CQ notifier — the exact
  // doorbell sim::Poller parks against.
  auto notifies = std::make_shared<std::atomic<uint64_t>>(0);
  const uint64_t word = 256;
  std::memcpy(remote_->data(), &word, sizeof(word));
  harness_->Run([&] {
    std::atomic<uint64_t>* n = notifies.get();
    auto notify = [n] { n->fetch_add(1, std::memory_order_relaxed); };
    static_assert(sim::InlineFunction::fits_inline<decltype(notify)>());
    cqp_->send_cq().SetNotifier(notify);
  });

  // Baseline: two dependent plain reads ring the doorbell twice.
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostRead(1, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  ASSERT_TRUE(posted);
  ASSERT_EQ(DrainN(1).size(), 1u);
  harness_->Run([&] {
    posted =
        cqp_->PostRead(2, local_, 64, remote_->remote_key(), word, 32).ok();
  });
  ASSERT_TRUE(posted);
  ASSERT_EQ(DrainN(1).size(), 1u);
  EXPECT_EQ(notifies->load(), 2u);

  // The same dependent pair as one chain: one completion, one notify.
  notifies->store(0);
  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].remote_offset = 0;
  hops[0].local_offset = 0;
  hops[0].len = 8;
  hops[1].key = remote_->remote_key();
  hops[1].remote_offset = 0;
  hops[1].local_offset = 64;
  hops[1].len = 32;
  hops[1].addr_from_prev = true;
  harness_->Run(
      [&] { posted = cqp_->PostChain(3, local_, hops, 2).ok(); });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(notifies->load(), 1u);
}

TEST_P(BackendRdmaTest, ChainRejectsMalformedDescriptors) {
  rdma::ChainHop hops[2];
  hops[0].key = remote_->remote_key();
  hops[0].len = 8;
  hops[1].key = remote_->remote_key();
  hops[1].len = 8;
  hops[1].addr_from_prev = true;
  harness_->Run([&] {
    // Zero hops / too many hops.
    EXPECT_FALSE(cqp_->PostChain(1, local_, hops, 0).ok());
    EXPECT_FALSE(
        cqp_->PostChain(2, local_, hops, rdma::kMaxChainHops + 1).ok());
    // A dependent hop 0 has no prior read to chase from.
    rdma::ChainHop bad[1];
    bad[0].key = remote_->remote_key();
    bad[0].len = 8;
    bad[0].addr_from_prev = true;
    EXPECT_FALSE(cqp_->PostChain(3, local_, bad, 1).ok());
    // Local range outside the MR.
    rdma::ChainHop oob[1];
    oob[0].key = remote_->remote_key();
    oob[0].local_offset = 64 * kKiB;
    oob[0].len = 8;
    EXPECT_FALSE(cqp_->PostChain(5, local_, oob, 1).ok());
  });
}

// ---------------------------------------------------------------------------
// Tests that need both queue pairs in one process, so they run on the
// simulator and the socketpair backend but not over TCP:
// - BothEndsCanPostAsSoonAsConnectReturns: over TCP the server QP
//   learns its stream only when the dialer's kConnect frame reaches its
//   loop, after Connect() has returned.
// - NicFailureFlushesInFlightOps: a failing server NIC breaks the client
//   QP through the in-process peer linkage; over TCP the client learns
//   of it only when the stream closes, racing the writes' acks.
// - ConnectingToAConnectedPeerFailsAtOnce: only an in-process Connect
//   can see the peer's state; a remote dial is refused by the peer's
//   process after Connect() has returned.

class InProcessRdmaTest : public BackendRdmaTest {};

TEST_P(InProcessRdmaTest, BothEndsCanPostAsSoonAsConnectReturns) {
  // The peer may post the moment Connect() returns (a cache server may
  // answer a batch that early): on the socket backend Connect binds
  // both ends of the socketpair before returning.
  const char msg[] = "posted right after Connect";
  std::memcpy(remote_->data(), msg, sizeof(msg));
  QueuePair* sq = nullptr;
  bool posted = false;
  harness_->Run([&] {
    QueuePair* cq = client_nic_->CreateQueuePair(4);
    sq = server_nic_->CreateQueuePair(4);
    EXPECT_TRUE(cq->Connect(sq).ok());
    posted = sq->PostWrite(5, remote_, 0, local_->remote_key(), 512,
                           sizeof(msg))
                 .ok();
  });
  ASSERT_TRUE(posted);
  WorkCompletion wc;
  bool got = false;
  ASSERT_TRUE(harness_->Await([&] {
    if (!got && sq->send_cq().Poll(&wc, 1) == 1) got = true;
    return got;
  }));
  EXPECT_EQ(wc.wr_id, 5u);
  EXPECT_EQ(wc.status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local_->data() + 512, msg, sizeof(msg)), 0);
}

TEST_P(InProcessRdmaTest, NicFailureFlushesInFlightOps) {
  harness_->Run([&] {
    for (int i = 0; i < 4; i++) {
      EXPECT_TRUE(
          cqp_->PostWrite(i, local_, 0, remote_->remote_key(), 0, 8).ok());
    }
    server_nic_->Fail();
  });
  auto wcs = DrainN(4);
  ASSERT_EQ(wcs.size(), 4u);
  for (const auto& wc : wcs) {
    EXPECT_EQ(wc.status, StatusCode::kUnavailable);
  }
  bool reposted = true;
  harness_->Run([&] {
    reposted =
        cqp_->PostWrite(9, local_, 0, remote_->remote_key(), 0, 8).ok();
  });
  EXPECT_FALSE(reposted);
}

TEST_P(InProcessRdmaTest, NicFailureFlushesReadsWhoseAcksAreQueued) {
  // On the socketpair backend these READs run directly on the loop, so
  // their acks already wait in the loop's mailbox when the NIC fails.
  // Each op still completes exactly once, with kUnavailable.
  harness_->Run([&] {
    for (uint64_t i = 0; i < 4; i++) {
      EXPECT_TRUE(cqp_->PostRead(i + 1, local_, 64 * i, remote_->remote_key(),
                                 64 * i, 64)
                      .ok());
    }
    server_nic_->Fail();
  });
  auto wcs = DrainN(4);
  ASSERT_EQ(wcs.size(), 4u);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].status, StatusCode::kUnavailable);
  }
  // The queued acks have run by now (the mailbox is FIFO), and none of
  // them completed anything a second time.
  size_t late = 0;
  uint32_t outstanding = 1;
  harness_->Run([&] {
    WorkCompletion wc;
    while (cqp_->send_cq().Poll(&wc, 1) == 1) late++;
    outstanding = cqp_->outstanding();
  });
  EXPECT_EQ(late, 0u);
  EXPECT_EQ(outstanding, 0u);
}

TEST_P(InProcessRdmaTest, NicFailureFlushesWritesWhoseAcksAreQueued) {
  // The WRITE twin of the test above: on the socketpair backend these
  // WRITEs land on the loop at post time, and their acks wait in the
  // loop's mailbox when the NIC fails. Each still completes once, with
  // kUnavailable.
  harness_->Run([&] {
    for (uint64_t i = 0; i < 4; i++) {
      EXPECT_TRUE(cqp_->PostWrite(i + 1, local_, 64 * i, remote_->remote_key(),
                                  64 * i, 64)
                      .ok());
    }
    server_nic_->Fail();
  });
  auto wcs = DrainN(4);
  ASSERT_EQ(wcs.size(), 4u);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
    EXPECT_EQ(wcs[i].opcode, rdma::Opcode::kWrite);
    EXPECT_EQ(wcs[i].status, StatusCode::kUnavailable);
  }
  size_t late = 0;
  uint32_t outstanding = 1;
  harness_->Run([&] {
    WorkCompletion wc;
    while (cqp_->send_cq().Poll(&wc, 1) == 1) late++;
    outstanding = cqp_->outstanding();
  });
  EXPECT_EQ(late, 0u);
  EXPECT_EQ(outstanding, 0u);
}

TEST_P(InProcessRdmaTest, ConnectingToAConnectedPeerFailsAtOnce) {
  // Connect() itself refuses a second QP dialing an already-connected
  // peer, and the established pair keeps moving bytes both ways.
  Status st;
  harness_->Run([&] {
    QueuePair* intruder = client_nic_->CreateQueuePair(4);
    st = intruder->Connect(sqp_);
  });
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  std::memset(local_->data(), 0x11, 8);
  std::memset(remote_->data() + 64, 0x22, 8);
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostWrite(1, local_, 0, remote_->remote_key(), 0, 8).ok() &&
             sqp_->PostWrite(2, remote_, 64, local_->remote_key(), 64, 8).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  WorkCompletion swc;
  ASSERT_TRUE(
      harness_->Await([&] { return sqp_->send_cq().Poll(&swc, 1) == 1; }));
  EXPECT_EQ(swc.status, StatusCode::kOk);
  EXPECT_EQ(remote_->data()[0], 0x11);
  EXPECT_EQ(local_->data()[64], 0x22);
}

std::string BackendName(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kSim:
      return "Sim";
    case Backend::kSocket:
      return "SocketLoopback";
    case Backend::kSocketTcp:
      return "SocketTcp";
  }
  return "";
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendRdmaTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket,
                                           Backend::kSocketTcp),
                         BackendName);
INSTANTIATE_TEST_SUITE_P(Backends, InProcessRdmaTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket),
                         BackendName);

// Over TCP every READ is framed, so its landing region can be
// deregistered while the READ is in flight. Deregistration frees the
// region at once, so the READ must land nothing (ASan checks that).
class FramedReadTest : public BackendRdmaTest {};

TEST_P(FramedReadTest, LandingRegionDeregisteredInFlightIsProtectionError) {
  bool posted = false;
  harness_->Run([&] {
    MemoryRegion* landing = client_nic_->RegisterMemory(64 * kKiB);
    posted = cqp_->PostRead(1, landing, 0, remote_->remote_key(), 0, 64 * kKiB)
                 .ok();
    client_nic_->DeregisterMemory(landing);
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  // The QP stays usable.
  harness_->Run([&] {
    posted = cqp_->PostRead(2, local_, 0, remote_->remote_key(), 0, 64).ok();
  });
  ASSERT_TRUE(posted);
  wcs = DrainN(1);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
}

INSTANTIATE_TEST_SUITE_P(Backends, FramedReadTest,
                         ::testing::Values(Backend::kSocketTcp), BackendName);

// On the socketpair backend a WRITE between queue pairs of one process
// lands on the loop at post time, so its epoch check happens then too. On
// the simulator and over TCP it happens when the WRITE reaches the
// responder, after the revocation below.
class DirectWriteTest : public BackendRdmaTest {};

TEST_P(DirectWriteTest, RevocationBetweenTwoWritesFencesTheSecond) {
  const rdma::RemoteKey key = remote_->remote_key();
  std::memset(remote_->data(), 0, 32);
  std::memset(local_->data(), 0x5A, 32);
  bool posted = false;
  harness_->Run([&] {
    posted = cqp_->PostWrite(1, local_, 0, key, 0, 16).ok();
    remote_->RevokeEpoch();
    posted = posted && cqp_->PostWrite(2, local_, 16, key, 16, 16).ok();
  });
  ASSERT_TRUE(posted);
  auto wcs = DrainN(2);
  ASSERT_EQ(wcs.size(), 2u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[1].status, StatusCode::kProtectionError);
  for (int i = 0; i < 16; i++) {
    ASSERT_EQ(remote_->data()[i], 0x5A) << "first write missing byte " << i;
    ASSERT_EQ(remote_->data()[16 + i], 0) << "fenced write landed byte " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, DirectWriteTest,
                         ::testing::Values(Backend::kSocket), BackendName);

// A kChain frame comes from outside the process, so the responder
// checks its shape before any hop runs. A plain TCP stream dialed to the
// listener needs no kConnect: a worker answers a kChain on the stream it
// arrived on.
class ChainFrameTest : public BackendRdmaTest {};

TEST_P(ChainFrameTest, MalformedChainFramesRunNoHop) {
  auto& server = static_cast<SocketFabric&>(harness_->server_fabric());
  std::memset(remote_->data(), 0x11, 64);
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const timeval timeout{10, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(inet_pton(AF_INET, server.listen_host().c_str(), &addr.sin_addr),
            1);
  ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  auto send_chain = [&](uint64_t token, uint8_t flags, uint64_t trailing) {
    transport::ChainHopWire w;
    w.rkey = remote_->remote_key().rkey;
    w.epoch = remote_->remote_key().epoch;
    w.len = 8;
    w.flags = flags;
    std::vector<uint8_t> body(sizeof(w) + trailing, 0x5A);
    std::memcpy(body.data(), &w, sizeof(w));
    transport::FrameHeader h;
    h.type = static_cast<uint8_t>(transport::FrameType::kChain);
    h.token = token;
    h.aux = 1;
    const auto frame = transport::EncodeFrame(h, body.data(), body.size());
    return ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(frame.size());
  };
  // A hop flagged 2, a bit other than kAddrFromPrev, with 8 bytes behind
  // its descriptor.
  ASSERT_TRUE(send_chain(1, 2, 8));
  // A well-formed read hop with 8 stray bytes behind its descriptor.
  ASSERT_TRUE(send_chain(2, 0, 8));

  for (uint64_t token = 1; token <= 2; token++) {
    transport::FrameHeader resp;
    ASSERT_EQ(recv(fd, &resp, sizeof(resp), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(resp)))
        << "no answer to chain " << token;
    EXPECT_EQ(resp.type, static_cast<uint8_t>(transport::FrameType::kChainResp));
    EXPECT_EQ(resp.token, token);
    EXPECT_EQ(resp.status, static_cast<uint8_t>(StatusCode::kInvalidArgument))
        << "chain " << token;
    EXPECT_EQ(resp.aux, 0u) << "chain " << token << " ran a hop";
    std::vector<uint8_t> rest(resp.payload_len);
    if (!rest.empty()) {
      ASSERT_EQ(recv(fd, rest.data(), rest.size(), MSG_WAITALL),
                static_cast<ssize_t>(rest.size()));
    }
  }
  close(fd);
  for (int i = 0; i < 64; i++) {
    ASSERT_EQ(remote_->data()[i], 0x11) << "target byte " << i << " changed";
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ChainFrameTest,
                         ::testing::Values(Backend::kSocketTcp), BackendName);

// ---------------------------------------------------------------------------
// Full-stack slice: the unmodified CacheClient/CacheServer stack runs
// the same round trips on both backends.

class BackendCacheTest : public ::testing::TestWithParam<Backend> {
 protected:
  explicit BackendCacheTest(bool chain_reads = false) {
    if (GetParam() == Backend::kSim) {
      TestbedOptions o;
      o.pods = 2;
      o.racks_per_pod = 2;
      o.servers_per_rack = 4;
      o.client.region_bytes = 4 * kMiB;
      o.client.chain_reads = chain_reads;
      tb_ = std::make_unique<Testbed>(o);
    } else {
      LoopbackRigOptions o;
      o.servers_per_rack = 4;
      o.client.region_bytes = 4 * kMiB;
      o.client.chain_reads = chain_reads;
      rig_ = std::make_unique<LoopbackRig>(o);
    }
  }

  CacheClient& client() { return tb_ ? tb_->client() : rig_->client(); }

  void Run(const std::function<void()>& fn) {
    if (tb_) {
      fn();
    } else {
      rig_->Call(fn);
    }
  }

  bool Await(const std::function<bool()>& pred) {
    if (tb_) {
      for (int i = 0; i < 2'000'000; i++) {
        if (pred()) return true;
        if (!tb_->sim().Step()) return pred();
      }
      return pred();
    }
    return rig_->AwaitTrue(pred);
  }

  std::unique_ptr<Testbed> tb_;
  std::unique_ptr<LoopbackRig> rig_;
};

TEST_P(BackendCacheTest, OneSidedWriteReadRoundTrip) {
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 4},
                                      /*record_bytes=*/64);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "stranded memory as a cache";
  std::atomic<bool> wrote{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .Write(id, 4096, msg, sizeof(msg),
                           [&](Status st) {
                             EXPECT_TRUE(st.ok()) << st.ToString();
                             wrote.store(true, std::memory_order_release);
                           })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return wrote.load(std::memory_order_acquire); }));

  char out[64] = {};
  std::atomic<bool> read{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .Read(id, 4096, out, sizeof(msg),
                          [&](Status st) {
                            EXPECT_TRUE(st.ok()) << st.ToString();
                            read.store(true, std::memory_order_release);
                          })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return read.load(std::memory_order_acquire); }));
  EXPECT_STREQ(out, msg);
  Run([&] { EXPECT_TRUE(client().Delete(id).ok()); });
}

TEST_P(BackendCacheTest, BatchedTwoSidedRoundTrip) {
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{2, 1, 8, 4},
                                      /*record_bytes=*/32);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  constexpr int kOps = 32;
  std::vector<std::vector<uint8_t>> payloads(kOps);
  std::atomic<int> writes_done{0};
  Run([&] {
    for (int i = 0; i < kOps; i++) {
      payloads[i].assign(32, static_cast<uint8_t>(i + 1));
      EXPECT_TRUE(client()
                      .Write(id, i * 32, payloads[i].data(), 32,
                             [&](Status st) {
                               EXPECT_TRUE(st.ok()) << st.ToString();
                               writes_done.fetch_add(1);
                             },
                             /*app_thread=*/i % 2)
                      .ok());
    }
  });
  ASSERT_TRUE(Await([&] { return writes_done.load() == kOps; }));

  std::vector<std::vector<uint8_t>> got(kOps, std::vector<uint8_t>(32));
  std::atomic<int> reads_done{0};
  Run([&] {
    for (int i = 0; i < kOps; i++) {
      EXPECT_TRUE(client()
                      .Read(id, i * 32, got[i].data(), 32,
                            [&](Status st) {
                              EXPECT_TRUE(st.ok()) << st.ToString();
                              reads_done.fetch_add(1);
                            },
                            /*app_thread=*/i % 2)
                      .ok());
    }
  });
  ASSERT_TRUE(Await([&] { return reads_done.load() == kOps; }));
  for (int i = 0; i < kOps; i++) {
    EXPECT_EQ(got[i], payloads[i]) << "record " << i;
  }
  Run([&] { EXPECT_TRUE(client().Delete(id).ok()); });
}

TEST_P(BackendCacheTest, IndirectReadFallbackChasesHopByHop) {
  // chain_reads is off in this fixture: ReadIndirect decomposes into
  // two dependent one-sided round trips (the chain_bench baseline).
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 4},
                                      /*record_bytes=*/64);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "pointer-chased record";
  const uint64_t ptr_word = 4096;  // region-relative offset of the data
  std::atomic<int> writes_done{0};
  Run([&] {
    auto wrote = [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      writes_done.fetch_add(1);
    };
    EXPECT_TRUE(client().Write(id, 4096, msg, sizeof(msg), wrote).ok());
    EXPECT_TRUE(
        client().Write(id, 8192, &ptr_word, sizeof(ptr_word), wrote).ok());
  });
  ASSERT_TRUE(Await([&] { return writes_done.load() == 2; }));

  char out[64] = {};
  std::atomic<bool> read{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .ReadIndirect(id, 8192, out, sizeof(msg),
                                  [&](Status st) {
                                    EXPECT_TRUE(st.ok()) << st.ToString();
                                    read.store(true,
                                               std::memory_order_release);
                                  })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return read.load(std::memory_order_acquire); }));
  EXPECT_STREQ(out, msg);
  Run([&] {
    const CacheClient::Stats* s = client().stats(id);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->indirect_reads, 1u);
    EXPECT_EQ(s->chain_fallbacks, 1u);
    EXPECT_EQ(s->chained_reads, 0u);
    EXPECT_TRUE(client().Delete(id).ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendCacheTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket),
                         BackendName);

// Resident set size of this process in KiB, from /proc/self/status.
uint64_t VmRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6));
  }
  return 0;
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define REDY_SANITIZER_HOLDS_FREED_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define REDY_SANITIZER_HOLDS_FREED_MEMORY 1
#endif
#endif

TEST(SocketCacheTest, LargeOneSidedReadsDoNotGrowResidentMemory) {
#ifdef REDY_SANITIZER_HOLDS_FREED_MEMORY
  GTEST_SKIP() << "ASan and TSan keep freed memory in quarantine, so the "
                  "resident set cannot show regions being freed";
#endif
  // CacheClient stages every one-sided op above 64 KiB in a transient
  // region it registers and deregisters around the op, so a NIC that
  // keeps deregistered regions would grow by 1 MiB per read here.
  constexpr uint64_t kLen = 1 * kMiB;
  constexpr int kReads = 128;
  LoopbackRigOptions o;
  o.client.region_bytes = 4 * kMiB;
  LoopbackRig rig(o);
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  rig.Call([&] {
    id_or = rig.client().CreateWithConfig(16 * kMiB, RdmaConfig{1, 0, 1, 4},
                                          /*record_bytes=*/64);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  std::vector<uint8_t> out(kLen);
  auto read_once = [&](uint64_t offset) {
    std::atomic<bool> done{false};
    rig.Call([&] {
      EXPECT_TRUE(rig.client()
                      .Read(*id_or, offset, out.data(), kLen,
                            [&](Status st) {
                              EXPECT_TRUE(st.ok()) << st.ToString();
                              done.store(true, std::memory_order_release);
                            })
                      .ok());
    });
    return rig.AwaitTrue(
        [&] { return done.load(std::memory_order_acquire); });
  };
  ASSERT_TRUE(read_once(0));  // warm up allocator and connection state
  const uint64_t before = VmRssKiB();
  for (int i = 0; i < kReads; i++) {
    ASSERT_TRUE(read_once((i % 12) * kLen));
  }
  const uint64_t grown_kib = VmRssKiB() - std::min(before, VmRssKiB());
  EXPECT_LT(grown_kib, 16 * 1024u)
      << kReads << " reads of 1 MiB grew the resident set by "
      << grown_kib / 1024 << " MiB";
  rig.Call([&] { EXPECT_TRUE(rig.client().Delete(*id_or).ok()); });
}

/// Same full-stack slice with Options::chain_reads on: the whole chase
/// is one chained doorbell on the client NIC.
class BackendChainCacheTest : public BackendCacheTest {
 protected:
  BackendChainCacheTest() : BackendCacheTest(/*chain_reads=*/true) {}
};

TEST_P(BackendChainCacheTest, IndirectReadUsesOneChainedDoorbell) {
  Result<CacheClient::CacheId> id_or = Status::Internal("unset");
  Run([&] {
    id_or = client().CreateWithConfig(8 * kMiB, RdmaConfig{1, 0, 1, 4},
                                      /*record_bytes=*/64);
  });
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "one doorbell, one wakeup";
  const uint64_t ptr_word = 64 * kKiB;  // data parked deeper in region 0
  std::atomic<int> writes_done{0};
  Run([&] {
    auto wrote = [&](Status st) {
      EXPECT_TRUE(st.ok()) << st.ToString();
      writes_done.fetch_add(1);
    };
    EXPECT_TRUE(
        client().Write(id, 64 * kKiB, msg, sizeof(msg), wrote).ok());
    EXPECT_TRUE(
        client().Write(id, 128, &ptr_word, sizeof(ptr_word), wrote).ok());
  });
  ASSERT_TRUE(Await([&] { return writes_done.load() == 2; }));

  char out[64] = {};
  std::atomic<bool> read{false};
  Run([&] {
    EXPECT_TRUE(client()
                    .ReadIndirect(id, 128, out, sizeof(msg),
                                  [&](Status st) {
                                    EXPECT_TRUE(st.ok()) << st.ToString();
                                    read.store(true,
                                               std::memory_order_release);
                                  })
                    .ok());
  });
  ASSERT_TRUE(Await([&] { return read.load(std::memory_order_acquire); }));
  EXPECT_STREQ(out, msg);
  Run([&] {
    const CacheClient::Stats* s = client().stats(id);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->indirect_reads, 1u);
    EXPECT_EQ(s->chained_reads, 1u);
    EXPECT_EQ(s->chain_fallbacks, 0u);
    EXPECT_TRUE(client().Delete(id).ok());
  });
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendChainCacheTest,
                         ::testing::Values(Backend::kSim, Backend::kSocket),
                         BackendName);

// Two-sided parity (sim): with singleton conversion off and a message
// ring configured, ReadIndirect rides the batch path and the SERVER
// chases the pointer (protocol.h kReadPtr) — still one round trip.
TEST(IndirectReadTwoSidedTest, ServerChasesPointerInOneRoundTrip) {
  TestbedOptions o;
  o.pods = 2;
  o.racks_per_pod = 2;
  o.servers_per_rack = 4;
  o.client.region_bytes = 4 * kMiB;
  o.costs.one_sided_singletons = false;  // Testbed copies costs into client
  Testbed tb(o);
  auto id_or = tb.client().CreateWithConfig(
      8 * kMiB, RdmaConfig{2, 1, 8, 4}, /*record_bytes=*/64);
  ASSERT_TRUE(id_or.ok()) << id_or.status().ToString();
  const auto id = *id_or;

  const char msg[] = "server-side chase";
  const uint64_t ptr_word = 4096;
  int writes_done = 0;
  auto wrote = [&](Status st) {
    EXPECT_TRUE(st.ok()) << st.ToString();
    writes_done++;
  };
  ASSERT_TRUE(tb.client().Write(id, 4096, msg, sizeof(msg), wrote).ok());
  ASSERT_TRUE(
      tb.client().Write(id, 8192, &ptr_word, sizeof(ptr_word), wrote).ok());
  tb.sim().Run();
  ASSERT_EQ(writes_done, 2);

  char out[64] = {};
  bool read = false;
  ASSERT_TRUE(tb.client()
                  .ReadIndirect(id, 8192, out, sizeof(msg),
                                [&](Status st) {
                                  EXPECT_TRUE(st.ok()) << st.ToString();
                                  read = true;
                                })
                  .ok());
  tb.sim().Run();
  ASSERT_TRUE(read);
  EXPECT_STREQ(out, msg);
  const CacheClient::Stats* s = tb.client().stats(id);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->indirect_reads, 1u);
  // Served by the server-side chase: no NIC chain, no client fallback —
  // the indirect read rode the message ring like the two writes did.
  EXPECT_EQ(s->chained_reads, 0u);
  EXPECT_EQ(s->chain_fallbacks, 0u);
  EXPECT_EQ(s->batched_ops, 3u);
}

}  // namespace
}  // namespace redy
