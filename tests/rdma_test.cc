#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/units.h"
#include "net/topology.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "rdma/responder.h"
#include "redy/cache_server.h"
#include "sim/simulation.h"

namespace redy {
namespace {

using rdma::Fabric;
using rdma::MemoryRegion;
using rdma::Nic;
using rdma::Opcode;
using rdma::QueuePair;
using rdma::WorkCompletion;

class RdmaTest : public ::testing::Test {
 protected:
  RdmaTest()
      : fabric_(&sim_, net::Topology(/*pods=*/2, /*racks=*/2, /*servers=*/4)) {
    client_nic_ = fabric_.NicAt(0);
    server_nic_ = fabric_.NicAt(1);  // same rack: 1 switch
    cqp_ = client_nic_->CreateQueuePair(16);
    sqp_ = server_nic_->CreateQueuePair(16);
    EXPECT_TRUE(cqp_->Connect(sqp_).ok());
  }

  // Drains the sim and returns all completions from cqp_'s send CQ.
  std::vector<WorkCompletion> Drain() {
    sim_.Run();
    std::vector<WorkCompletion> out;
    WorkCompletion wc;
    while (cqp_->send_cq().Poll(&wc, 1) == 1) out.push_back(wc);
    return out;
  }

  sim::Simulation sim_;
  Fabric fabric_;
  Nic* client_nic_;
  Nic* server_nic_;
  QueuePair* cqp_;
  QueuePair* sqp_;
};

TEST_F(RdmaTest, OneSidedWriteMovesBytes) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  const char msg[] = "hello remote memory";
  std::memcpy(local->data() + 100, msg, sizeof(msg));
  ASSERT_TRUE(cqp_->PostWrite(7, local, 100, remote->remote_key(), 200,
                              sizeof(msg))
                  .ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].wr_id, 7u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(wcs[0].opcode, Opcode::kWrite);
  EXPECT_EQ(std::memcmp(remote->data() + 200, msg, sizeof(msg)), 0);
}

TEST_F(RdmaTest, OneSidedReadMovesBytes) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  const char msg[] = "data on the server";
  std::memcpy(remote->data() + 64, msg, sizeof(msg));
  ASSERT_TRUE(
      cqp_->PostRead(9, local, 0, remote->remote_key(), 64, sizeof(msg)).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local->data(), msg, sizeof(msg)), 0);
}

TEST_F(RdmaTest, SmallOpLatencyIsAFewMicroseconds) {
  // The fabric is calibrated to the paper's testbed: one-sided small ops
  // land at roughly 3-5us overall (Section 7.2, Fig. 11).
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, remote->remote_key(), 0, 8).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  const double us = ToMicros(wcs[0].completed_at);
  EXPECT_GT(us, 1.0);
  EXPECT_LT(us, 6.0);
}

TEST_F(RdmaTest, InlineWriteIsFasterThanNonInline) {
  MemoryRegion* local = client_nic_->RegisterMemory(64 * kKiB);
  MemoryRegion* remote = server_nic_->RegisterMemory(64 * kKiB);
  const uint32_t threshold = fabric_.params().inline_threshold_bytes;

  ASSERT_TRUE(
      cqp_->PostWrite(1, local, 0, remote->remote_key(), 0, threshold).ok());
  auto wcs1 = Drain();
  ASSERT_EQ(wcs1.size(), 1u);
  const sim::SimTime t_inline = wcs1[0].completed_at;

  sim::Simulation sim2;
  Fabric fabric2(&sim2, net::Topology(2, 2, 4));
  Nic* cn = fabric2.NicAt(0);
  Nic* sn = fabric2.NicAt(1);
  QueuePair* cq = cn->CreateQueuePair(16);
  QueuePair* sq = sn->CreateQueuePair(16);
  ASSERT_TRUE(cq->Connect(sq).ok());
  MemoryRegion* l2 = cn->RegisterMemory(64 * kKiB);
  MemoryRegion* r2 = sn->RegisterMemory(64 * kKiB);
  ASSERT_TRUE(
      cq->PostWrite(1, l2, 0, r2->remote_key(), 0, threshold + 1).ok());
  sim2.Run();
  WorkCompletion wc;
  ASSERT_EQ(cq->send_cq().Poll(&wc, 1), 1);
  // The non-inline write pays the PCIe fetch.
  EXPECT_GT(wc.completed_at, t_inline);
  EXPECT_GE(wc.completed_at - t_inline, fabric2.params().pcie_fetch_ns / 2);
}

TEST_F(RdmaTest, ReadLatencyGrowsWithDistance) {
  // Servers 0 and 1 share a rack (1 hop); server 0 and the last server
  // are in different pods (5 hops).
  sim::Simulation sim2;
  Fabric fabric2(&sim2, net::Topology(2, 2, 4));
  Nic* cn = fabric2.NicAt(0);
  Nic* far = fabric2.NicAt(15);
  ASSERT_EQ(fabric2.SwitchHops(0, 1), 1);
  ASSERT_EQ(fabric2.SwitchHops(0, 15), 5);
  QueuePair* cq = cn->CreateQueuePair(16);
  QueuePair* fq = far->CreateQueuePair(16);
  ASSERT_TRUE(cq->Connect(fq).ok());
  MemoryRegion* l2 = cn->RegisterMemory(4096);
  MemoryRegion* r2 = far->RegisterMemory(4096);
  ASSERT_TRUE(cq->PostRead(1, l2, 0, r2->remote_key(), 0, 8).ok());
  sim2.Run();
  WorkCompletion far_wc;
  ASSERT_EQ(cq->send_cq().Poll(&far_wc, 1), 1);

  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  ASSERT_TRUE(
      cqp_->PostRead(1, local, 0, remote->remote_key(), 0, 8).ok());
  auto near_wcs = Drain();
  ASSERT_EQ(near_wcs.size(), 1u);
  // 4 extra switch crossings each way.
  EXPECT_GT(far_wc.completed_at, near_wcs[0].completed_at);
}

TEST_F(RdmaTest, QueueDepthIsEnforced) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  QueuePair* qp4 = client_nic_->CreateQueuePair(4);
  QueuePair* sqp4 = server_nic_->CreateQueuePair(4);
  ASSERT_TRUE(qp4->Connect(sqp4).ok());

  int accepted = 0;
  for (int i = 0; i < 10; i++) {
    if (qp4->PostWrite(i, local, 0, remote->remote_key(), 0, 8).ok()) {
      accepted++;
    }
  }
  EXPECT_EQ(accepted, 4);
  sim_.Run();
  // After completion, the depth frees up.
  EXPECT_TRUE(qp4->PostWrite(99, local, 0, remote->remote_key(), 0, 8).ok());
}

TEST_F(RdmaTest, CompletionsArriveInPostOrder) {
  MemoryRegion* local = client_nic_->RegisterMemory(64 * kKiB);
  MemoryRegion* remote = server_nic_->RegisterMemory(64 * kKiB);
  // Mix large and small ops; completions must still be FIFO per QP.
  ASSERT_TRUE(
      cqp_->PostWrite(1, local, 0, remote->remote_key(), 0, 16 * kKiB).ok());
  ASSERT_TRUE(cqp_->PostWrite(2, local, 0, remote->remote_key(), 0, 8).ok());
  ASSERT_TRUE(
      cqp_->PostRead(3, local, 0, remote->remote_key(), 0, 8 * kKiB).ok());
  ASSERT_TRUE(cqp_->PostWrite(4, local, 0, remote->remote_key(), 0, 8).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 4u);
  for (size_t i = 0; i < wcs.size(); i++) {
    EXPECT_EQ(wcs[i].wr_id, i + 1);
  }
  for (size_t i = 1; i < wcs.size(); i++) {
    EXPECT_GE(wcs[i].completed_at, wcs[i - 1].completed_at);
  }
}

TEST_F(RdmaTest, RemoteAccessToInvalidRegionFails) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  rdma::RemoteKey key = remote->remote_key();
  server_nic_->DeregisterMemory(remote);
  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, key, 0, 8).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
}

TEST_F(RdmaTest, DeregisterWhileWriteInFlightNeverTouchesBytes) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  const rdma::RemoteKey key = remote->remote_key();
  std::memset(remote->data(), 0xAB, 64);

  std::memset(local->data(), 0xCD, 64);
  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, key, 0, 64).ok());
  // Deregister while the WQE is in flight. The region's storage stays
  // alive through the NIC's retirement grace period, so the old bytes
  // remain observable — and must remain untouched.
  server_nic_->DeregisterMemory(remote);

  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 64; i++) {
    ASSERT_EQ(remote->data()[i], 0xAB) << "freed byte " << i << " mutated";
  }
}

TEST_F(RdmaTest, StaleEpochWriteIsFencedFreshKeySucceeds) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  const rdma::RemoteKey stale = remote->remote_key();
  std::memset(remote->data(), 0, 16);

  remote->RevokeEpoch();
  std::memset(local->data(), 0x5A, 16);
  ASSERT_TRUE(cqp_->PostWrite(1, local, 0, stale, 0, 16).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 16; i++) {
    ASSERT_EQ(remote->data()[i], 0) << "fenced write landed at byte " << i;
  }

  // A key minted after the revocation carries the new epoch and works.
  ASSERT_TRUE(
      cqp_->PostWrite(2, local, 0, remote->remote_key(), 0, 16).ok());
  wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(remote->data()[0], 0x5A);
}

TEST_F(RdmaTest, ReadsSurviveEpochRevocation) {
  // A revoked region is write-frozen but stays readable until
  // deregistration: migration chunk copies and unpaused reads keep
  // flowing through the cutover.
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  const char msg[] = "still readable";
  std::memcpy(remote->data(), msg, sizeof(msg));
  const rdma::RemoteKey stale = remote->remote_key();
  remote->RevokeEpoch();

  ASSERT_TRUE(cqp_->PostRead(1, local, 0, stale, 0, sizeof(msg)).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kOk);
  EXPECT_EQ(std::memcmp(local->data(), msg, sizeof(msg)), 0);
}

TEST_F(RdmaTest, RemoteOutOfBoundsFails) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(128);
  ASSERT_TRUE(
      cqp_->PostWrite(1, local, 0, remote->remote_key(), 120, 64).ok());
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kAborted);
}

TEST_F(RdmaTest, NicFailureFlushesInFlightOps) {
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(
        cqp_->PostWrite(i, local, 0, remote->remote_key(), 0, 8).ok());
  }
  server_nic_->Fail();
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 4u);
  for (const auto& wc : wcs) {
    EXPECT_EQ(wc.status, StatusCode::kUnavailable);
  }
  // New posts on a broken QP are rejected synchronously.
  EXPECT_FALSE(cqp_->PostWrite(9, local, 0, remote->remote_key(), 0, 8).ok());
}

TEST_F(RdmaTest, ServerShutdownFencesInFlightWrites) {
  // CacheServer::Shutdown deregisters every region it serves. A write
  // already in flight against one of them must complete with
  // kProtectionError and leave the (retired, still-observable) bytes
  // untouched.
  cluster::Vm vm;
  vm.id = 1;
  vm.server = 1;
  vm.memory_bytes = 64 * kMiB;
  redy::CacheServer server(&sim_, &fabric_, vm, redy::CostModel{});
  auto keys_or = server.AllocateRegions(1, 4096);
  ASSERT_TRUE(keys_or.ok());
  rdma::MemoryRegion* region = server.region(0);
  ASSERT_NE(region, nullptr);
  std::memset(region->data(), 0x11, 32);

  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  std::memset(local->data(), 0x22, 32);
  ASSERT_TRUE(cqp_->PostWrite(5, local, 0, (*keys_or)[0], 0, 32).ok());
  server.Shutdown();

  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, StatusCode::kProtectionError);
  for (int i = 0; i < 32; i++) {
    ASSERT_EQ(region->data()[i], 0x11) << "freed byte " << i << " mutated";
  }
}

TEST_F(RdmaTest, PipeliningImprovesThroughput) {
  // Queue depth q ops overlap the round trip: q=8 must finish ~8 ops in
  // scarcely more than one RTT, not 8 RTTs (fully-loaded QPs, Section 4.3).
  MemoryRegion* local = client_nic_->RegisterMemory(4096);
  MemoryRegion* remote = server_nic_->RegisterMemory(4096);

  ASSERT_TRUE(cqp_->PostWrite(0, local, 0, remote->remote_key(), 0, 8).ok());
  auto first = Drain();
  ASSERT_EQ(first.size(), 1u);
  const sim::SimTime one_rtt = first[0].completed_at;

  const sim::SimTime start = sim_.Now();
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(
        cqp_->PostWrite(i, local, 0, remote->remote_key(), 0, 8).ok());
  }
  auto wcs = Drain();
  ASSERT_EQ(wcs.size(), 8u);
  const sim::SimTime batch_time = wcs.back().completed_at - start;
  EXPECT_LT(batch_time, 3 * one_rtt);
}

// The responder core on a bare region: no NIC, no fabric, no timing.

TEST(ResponderTest, StaleEpochWriteDepositsNothing) {
  MemoryRegion mr(nullptr, 64, 1);
  std::memset(mr.data(), 0xAB, 64);
  const uint32_t stale = mr.epoch();
  mr.RevokeEpoch();
  std::vector<uint8_t> src(64, 0x5A);
  EXPECT_EQ(rdma::responder::Write(mr, stale, 0, src.data(), 64),
            StatusCode::kProtectionError);
  for (int i = 0; i < 64; i++) {
    ASSERT_EQ(mr.data()[i], 0xAB) << "fenced write landed at byte " << i;
  }
  EXPECT_EQ(rdma::responder::Write(mr, mr.epoch(), 0, src.data(), 64),
            StatusCode::kOk);
  EXPECT_EQ(mr.data()[0], 0x5A);
  EXPECT_EQ(mr.data()[63], 0x5A);
}

TEST(ResponderTest, ReadSucceedsAfterRevokeEpoch) {
  MemoryRegion mr(nullptr, 64, 1);
  const char msg[] = "still readable";
  std::memcpy(mr.data() + 8, msg, sizeof(msg));
  mr.RevokeEpoch();
  char dst[sizeof(msg)] = {};
  EXPECT_EQ(rdma::responder::Read(mr, 8, sizeof(msg),
                                  reinterpret_cast<uint8_t*>(dst)),
            StatusCode::kOk);
  EXPECT_EQ(std::memcmp(dst, msg, sizeof(msg)), 0);
}

TEST(ResponderTest, OutOfRangeOrOverflowingRangeMovesNoBytes) {
  MemoryRegion mr(nullptr, 64, 1);
  std::memset(mr.data(), 0xAB, 64);
  std::vector<uint8_t> buf(16, 0x5A);
  // Past the end, and an offset whose offset + len wraps around.
  for (const uint64_t offset : {uint64_t{60}, ~uint64_t{0} - 3}) {
    EXPECT_EQ(rdma::responder::Write(mr, mr.epoch(), offset, buf.data(), 8),
              StatusCode::kAborted);
    EXPECT_EQ(rdma::responder::Read(mr, offset, 8, buf.data()),
              StatusCode::kAborted);
    rdma::ChainHop hop;
    hop.key = mr.remote_key();
    hop.remote_offset = offset;
    hop.len = 8;
    uint64_t prev_word = 0;
    std::vector<uint8_t> out;
    EXPECT_EQ(rdma::responder::ChainHop(mr, hop, &prev_word, &out),
              StatusCode::kAborted);
    EXPECT_TRUE(out.empty());
  }
  for (int i = 0; i < 64; i++) ASSERT_EQ(mr.data()[i], 0xAB) << i;
  for (const uint8_t b : buf) ASSERT_EQ(b, 0x5A);
}

TEST(ResponderTest, ChainHopChasesMaskedShiftedPointerAndFencesReadHops) {
  MemoryRegion mr(nullptr, 256, 1);
  // A tagged pointer: the high bits are a tag the mask drops, and the
  // low bits hold the target offset shifted left by 4.
  const uint64_t word = 0xABCD000000000000ull | (uint64_t{64} << 4);
  std::memcpy(mr.data(), &word, sizeof(word));
  const char msg[] = "pointee";
  std::memcpy(mr.data() + 8 + 64, msg, sizeof(msg));

  rdma::ChainHop ptr;
  ptr.key = mr.remote_key();
  ptr.len = 8;
  rdma::ChainHop data;
  data.key = mr.remote_key();
  data.remote_offset = 8;
  data.local_offset = 8;
  data.len = sizeof(msg);
  data.addr_mask = 0xFFFF;
  data.addr_shift = 4;
  data.addr_from_prev = true;
  uint64_t prev_word = 0;
  std::vector<uint8_t> out;
  ASSERT_EQ(rdma::responder::ChainHop(mr, ptr, &prev_word, &out),
            StatusCode::kOk);
  EXPECT_EQ(prev_word, word);
  ASSERT_EQ(rdma::responder::ChainHop(mr, data, &prev_word, &out),
            StatusCode::kOk);
  ASSERT_EQ(out.size(), 8 + sizeof(msg));
  EXPECT_EQ(std::memcmp(out.data() + 8, msg, sizeof(msg)), 0);

  // The completion side lands each read hop at its local offset.
  MemoryRegion local(nullptr, 64, 2);
  const rdma::ChainHop hops[] = {ptr, data};
  rdma::responder::ScatterChainReads(hops, 2, out.data(), local);
  EXPECT_EQ(std::memcmp(local.data(), &word, sizeof(word)), 0);
  EXPECT_EQ(std::memcmp(local.data() + 8, msg, sizeof(msg)), 0);

  // Unlike a plain READ, a read hop under a stale key is fenced.
  mr.RevokeEpoch();
  prev_word = 7;
  out.clear();
  EXPECT_EQ(rdma::responder::ChainHop(mr, ptr, &prev_word, &out),
            StatusCode::kProtectionError);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(prev_word, 7u);
}

TEST(ResponderTest, ValidateChainRejectsMalformedShapes) {
  MemoryRegion local(nullptr, 64, 1);
  rdma::ChainHop hops[rdma::kMaxChainHops + 1];
  for (rdma::ChainHop& h : hops) h.len = 8;
  EXPECT_TRUE(rdma::responder::ValidateChain(local, hops, 2).ok());

  // Bad length.
  EXPECT_TRUE(
      rdma::responder::ValidateChain(local, hops, 0).IsInvalidArgument());
  EXPECT_TRUE(rdma::responder::ValidateChain(local, hops,
                                             rdma::kMaxChainHops + 1)
                  .IsInvalidArgument());
  // A local range out of bounds.
  hops[1].local_offset = 60;
  EXPECT_TRUE(rdma::responder::ValidateChain(local, hops, 2).IsOutOfRange());
  hops[1].local_offset = 0;
  // A dependent hop first, or after a < 8 B hop.
  hops[0].addr_from_prev = true;
  EXPECT_TRUE(
      rdma::responder::ValidateChain(local, hops, 2).IsInvalidArgument());
  hops[0].addr_from_prev = false;
  hops[1].addr_from_prev = true;
  EXPECT_TRUE(rdma::responder::ValidateChain(local, hops, 2).ok());
  hops[0].len = 4;
  EXPECT_TRUE(
      rdma::responder::ValidateChain(local, hops, 2).IsInvalidArgument());
}

}  // namespace
}  // namespace redy
