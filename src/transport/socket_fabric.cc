#include "transport/socket_fabric.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.h"
#include "rdma/responder.h"
#include "transport/blocking_socket.h"

namespace redy::transport {

namespace {

constexpr uint8_t Code(StatusCode c) { return static_cast<uint8_t>(c); }

ChainHopWire ToWire(const rdma::ChainHop& h) {
  return {h.key.rkey, h.key.epoch, h.remote_offset, h.local_offset, h.len,
          h.addr_mask, h.addr_shift,
          h.addr_from_prev ? ChainHopWire::kAddrFromPrev : uint8_t{0}};
}

rdma::ChainHop FromWire(const ChainHopWire& w) {
  return {{w.rkey, w.epoch}, w.remote_offset, w.local_offset, w.len,
          w.addr_mask, w.addr_shift,
          (w.flags & ChainHopWire::kAddrFromPrev) != 0};
}

}  // namespace

// ---------------------------------------------------------------------------
// SocketQueuePair

SocketQueuePair::SocketQueuePair(SocketNic* nic, uint32_t max_depth)
    : rdma::QueuePair(nic, max_depth), fab_(nic->socket_fabric()) {
  trace_id_ = fab_->NextQpTraceId();
  token_ = fab_->RegisterQp(this);
}

SocketQueuePair::SocketQueuePair(SocketNic* nic, std::string host,
                                 uint16_t port, uint64_t remote_token)
    : rdma::QueuePair(nic, 1),
      fab_(nic->socket_fabric()),
      remote_endpoint_(true),
      host_(std::move(host)),
      port_(port),
      remote_token_(remote_token) {}

SocketQueuePair::~SocketQueuePair() = default;

Status SocketQueuePair::Connect(rdma::QueuePair* peer) {
  if (broken_) return Status::Unavailable("QP is broken");
  if (connected_) return Status::FailedPrecondition("QP already connected");
  auto* sp = dynamic_cast<SocketQueuePair*>(peer);
  if (sp == nullptr || sp == this) {
    return Status::InvalidArgument("peer is not another socket-backend QP");
  }
  if (sp->remote_endpoint_) {
    // The peer lives in another process: dial its fabric's listener and
    // name the peer in the kConnect frame. The dial blocks, so Connect
    // returns a usable or broken QP, never a half-open one.
    const int fd = DialTcp(sp->host_, sp->port_);
    if (fd < 0) return Status::Unavailable("dial failed");
    FrameHeader h;
    h.type = static_cast<uint8_t>(FrameType::kConnect);
    h.token = token_;
    h.aux = sp->remote_token_;
    const std::vector<uint8_t> frame = EncodeFrame(h, nullptr, 0);
    if (!WriteFully(fd, frame.data(), frame.size())) {
      close(fd);
      return Status::Unavailable("connect handshake failed");
    }
    conn_ = fab_->pool().AddConnection(fd, token_);
    connected_ = true;
    return Status::OK();
  }
  // In-process peer: one socketpair, each end bound to its QP before we
  // return, so both ends can post at once. Keep the peer linkage so NIC
  // failure breaks both ends, as on the simulated fabric.
  if (sp->broken_) return Status::Unavailable("peer QP is broken");
  if (sp->connected_) {
    return Status::FailedPrecondition("peer QP already connected");
  }
  int sv[2];
  if (socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
    return Status::Unavailable("socketpair failed");
  }
  conn_ = fab_->pool().AddConnection(sv[0], token_);
  sp->conn_ = sp->fab_->pool().AddConnection(sv[1], sp->token_);
  connected_ = true;
  sp->connected_ = true;
  peer_ = sp;
  sp->peer_ = this;
  return Status::OK();
}

Status SocketQueuePair::CheckSendable() const {
  if (broken_) return Status::Unavailable("QP is broken");
  if (remote_endpoint_) {
    return Status::FailedPrecondition("cannot post on an endpoint descriptor");
  }
  if (!connected_) {
    return Status::FailedPrecondition("QP is not connected");
  }
  if (outstanding_ >= max_depth_) {
    return Status::ResourceExhausted("QP queue depth exceeded");
  }
  return Status::OK();
}

void SocketQueuePair::Park(PendingOp op) {
  pending_.push_back(std::move(op));
  next_op_token_++;
  outstanding_++;
  nic()->CountWqePosted();
}

void SocketQueuePair::Issue(PendingOp op, std::vector<uint8_t> frame) {
  Park(std::move(op));
  fab_->pool().Send(conn_, std::move(frame));
}

void SocketQueuePair::ParkDirect(PendingOp op, uint8_t status) {
  // The ack goes through the mailbox, so the op completes in post order
  // on a later loop pass.
  const uint64_t op_token = next_op_token_;
  op.direct = true;
  Park(std::move(op));
  fab_->driver()->Post([fab = fab_, qp = token_, op_token, status] {
    fab->DeliverAck(qp, op_token, status, 0, {});
  });
}

SocketFabric* SocketQueuePair::PeerFabric() const {
  return peer_ == nullptr ? nullptr
                          : static_cast<SocketQueuePair*>(peer_)->fab_;
}

bool SocketQueuePair::MustFollowFramedOp(bool write, uint32_t rkey,
                                         uint64_t offset, uint64_t len) const {
  for (size_t i = 0; i < pending_.size(); i++) {
    const PendingOp& op = pending_[i];
    if (op.direct || op.done) continue;  // its bytes have moved
    if (op.opcode == rdma::Opcode::kChain) {
      if (write) return true;  // a chain reads
    } else if ((op.opcode == rdma::Opcode::kWrite ||
                (write && op.opcode == rdma::Opcode::kRead)) &&
               op.rkey == rkey && op.remote_offset < offset + len &&
               offset < op.remote_offset + op.len) {
      return true;
    }
  }
  return false;
}

Status SocketQueuePair::PostWrite(uint64_t wr_id, const rdma::MemoryRegion* mr,
                                  uint64_t local_offset, rdma::RemoteKey key,
                                  uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckSendable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local range outside region");
  }
  PendingOp op(wr_id, rdma::Opcode::kWrite, len);
  op.rkey = key.rkey;
  op.remote_offset = remote_offset;
  const uint8_t* src = mr->data() + local_offset;
  SocketFabric* peer_fab = PeerFabric();
  if (peer_fab != nullptr && peer_fab->driver() == fab_->driver() &&
      !peer_fab->HasRemoteWriteNotifier(key.rkey) &&
      !MustFollowFramedOp(/*write=*/true, key.rkey, remote_offset, len)) {
    // Direct WRITE: the peer is in this process and served by this loop,
    // so the loop runs the responder itself; no frame, no worker, no
    // syscall. A region with a notifier is a polled ring, whose writes
    // stay framed (DESIGN.md §13).
    ParkDirect(std::move(op),
               peer_fab->Respond(key.rkey, [&](rdma::MemoryRegion& target) {
                 return rdma::responder::Write(target, key.epoch,
                                               remote_offset, src, len);
               }));
    return Status::OK();
  }
  FrameHeader h;
  h.type = static_cast<uint8_t>(FrameType::kWrite);
  h.rkey = key.rkey;
  h.epoch = key.epoch;
  h.token = next_op_token_;
  h.offset = remote_offset;
  // Snapshot at post time (verbs semantics): the frame owns its bytes,
  // so the caller may scribble over the source immediately.
  Issue(std::move(op), EncodeFrame(h, src, len));
  return Status::OK();
}

Status SocketQueuePair::PostRead(uint64_t wr_id, rdma::MemoryRegion* mr,
                                 uint64_t local_offset, rdma::RemoteKey key,
                                 uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckSendable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local range outside region");
  }
  PendingOp op(wr_id, rdma::Opcode::kRead, len);
  op.local_offset = local_offset;
  op.rkey = key.rkey;
  op.remote_offset = remote_offset;
  SocketFabric* peer_fab = PeerFabric();
  if (peer_fab != nullptr &&
      !MustFollowFramedOp(/*write=*/false, key.rkey, remote_offset, len)) {
    // Direct READ: the peer is in this process, so the loop runs the
    // responder itself and copies straight into the landing region; no
    // frame, no worker, no syscall.
    ParkDirect(std::move(op),
               peer_fab->Respond(key.rkey, [&](rdma::MemoryRegion& target) {
                 return rdma::responder::Read(target, remote_offset, len,
                                              mr->data() + local_offset);
               }));
    return Status::OK();
  }
  FrameHeader h;
  h.type = static_cast<uint8_t>(FrameType::kRead);
  h.rkey = key.rkey;
  h.epoch = key.epoch;
  h.token = next_op_token_;
  h.offset = remote_offset;
  h.aux = len;
  op.landing_key = mr->remote_key().rkey;
  Issue(std::move(op), EncodeFrame(h, nullptr, 0));
  return Status::OK();
}

Status SocketQueuePair::PostChain(uint64_t wr_id, rdma::MemoryRegion* mr,
                                  const rdma::ChainHop* hops,
                                  uint32_t num_hops) {
  REDY_RETURN_IF_ERROR(CheckSendable());
  REDY_RETURN_IF_ERROR(rdma::responder::ValidateChain(*mr, hops, num_hops));
  // One request frame carries all descriptors; the worker runs the
  // chain (ExecuteChain) and answers with one kChainResp.
  uint64_t total_read = 0;
  std::vector<uint8_t> body(num_hops * sizeof(ChainHopWire));
  for (uint32_t i = 0; i < num_hops; i++) {
    const ChainHopWire w = ToWire(hops[i]);
    std::memcpy(body.data() + i * sizeof(w), &w, sizeof(w));
    total_read += hops[i].len;
  }
  FrameHeader h;
  h.type = static_cast<uint8_t>(FrameType::kChain);
  h.token = next_op_token_;
  h.aux = num_hops;
  nic()->CountChainPosted();
  PendingOp op(wr_id, rdma::Opcode::kChain, total_read);
  if (total_read != 0) op.landing_key = mr->remote_key().rkey;
  op.chain_hops.assign(hops, hops + num_hops);
  Issue(std::move(op), EncodeFrame(h, body.data(), body.size()));
  return Status::OK();
}

void SocketQueuePair::CompleteOp(uint64_t op_token, StatusCode status,
                                 uint64_t aux, std::vector<uint8_t> payload) {
  // Op tokens are contiguous, so the op sits at its distance from the
  // front. Tokens outside the window were flushed by Break().
  if (op_token < front_token_ || op_token - front_token_ >= pending_.size()) {
    return;
  }
  PendingOp& op = pending_[op_token - front_token_];
  if (op.done) return;
  if (status == StatusCode::kOk && op.landing_key != 0) {
    // Land only in a region that is still registered: deregistration
    // frees the storage at once.
    rdma::MemoryRegion* dst = nic()->Resolve(op.landing_key);
    if (dst == nullptr) {
      status = StatusCode::kProtectionError;
    } else if (payload.size() != op.len) {
      status = StatusCode::kAborted;
    } else if (op.opcode == rdma::Opcode::kRead) {
      std::memcpy(dst->data() + op.local_offset, payload.data(), op.len);
    } else {
      rdma::responder::ScatterChainReads(
          op.chain_hops.data(), static_cast<uint32_t>(op.chain_hops.size()),
          payload.data(), *dst);
    }
  }
  if (op.opcode == rdma::Opcode::kChain) {
    // Mirror the sim's counter placement: hops/aborts accrue on the
    // initiator NIC. `aux` is the responder's executed-hop count.
    for (uint64_t i = 0; i < aux; i++) nic()->CountChainHop();
    if (status != StatusCode::kOk) {
      // A poisoned chain lands nothing: one error completion, zero
      // bytes (the responder never shipped any payload past the fault).
      op.len = 0;
      nic()->CountChainAborted();
    }
  }
  op.done = true;
  op.status = status;
  // Release every completed op at the front, in post order.
  while (!pending_.empty() && pending_.front().done) {
    const PendingOp& f = pending_.front();
    const rdma::WorkCompletion wc{f.wr_id, f.opcode, f.status, f.len,
                                  nic()->sim()->Now()};
    pending_.pop_front();
    front_token_++;
    outstanding_--;
    nic()->CountWqeCompleted(wc.status == StatusCode::kOk);
    send_cq_.Push(wc);
  }
}

void SocketQueuePair::Break() {
  if (broken_) return;
  broken_ = true;
  if (connected_) {
    connected_ = false;
    fab_->pool().Close(conn_);
  }
  // Flush in post order, mirroring the simulated sequencer's in-order
  // error flush. Ops whose ack arrived but is still held behind an
  // earlier op flush too.
  for (size_t i = 0; i < pending_.size(); i++) {
    const PendingOp& op = pending_[i];
    outstanding_--;
    nic()->CountWqeCompleted(false);
    send_cq_.Push(rdma::WorkCompletion{op.wr_id, op.opcode,
                                       StatusCode::kUnavailable, op.len,
                                       nic()->sim()->Now()});
  }
  pending_.clear();
  front_token_ = next_op_token_;
  // Async error doorbell so a parked poller re-sweeps and sees broken().
  send_cq_.Notify();
}

void SocketQueuePair::OnAccepted(WorkerPool::ConnId conn) {
  if (broken_ || connected_) {
    fab_->pool().Close(conn);
    return;
  }
  conn_ = conn;
  connected_ = true;
}

void SocketQueuePair::OnTransportClosed(WorkerPool::ConnId conn) {
  // A stream this QP turned away (OnAccepted) is not its own.
  if (!connected_ || conn != conn_) return;
  connected_ = false;
  Break();
}

// ---------------------------------------------------------------------------
// SocketNic

SocketNic::SocketNic(sim::Simulation* sim, SocketFabric* fabric,
                     net::ServerId server)
    : rdma::Nic(sim, fabric, server), fab_(fabric) {}

SocketNic::~SocketNic() {
  // Pull our regions out of the responder table before their storage
  // goes away. The fabric stops the worker pool before destroying NICs,
  // so this is belt-and-braces for NICs torn down mid-run.
  for (const auto& [rkey, mr] : regions_) fab_->RemoveSharedMr(rkey);
}

rdma::MemoryRegion* SocketNic::RegisterMemory(uint64_t bytes) {
  const uint32_t key = fab_->AllocRkey();
  auto mr = std::make_unique<rdma::MemoryRegion>(this, bytes, key);
  rdma::MemoryRegion* out = mr.get();
  regions_.emplace(key, std::move(mr));
  registered_bytes_ += bytes;
  fab_->AddSharedMr(key, out);
  return out;
}

void SocketNic::DeregisterMemory(rdma::MemoryRegion* mr) {
  if (mr == nullptr) return;
  const uint32_t key = mr->remote_key().rkey;
  auto it = regions_.find(key);
  if (it == regions_.end()) return;
  // Once RemoveSharedMr returns, no responder can touch the region, and
  // pending READs and chains resolve their landing region again at
  // completion, so the storage can go at once.
  fab_->RemoveSharedMr(key);
  registered_bytes_ -= mr->size();
  regions_.erase(it);
}

rdma::QueuePair* SocketNic::CreateQueuePair(uint32_t max_depth) {
  max_depth = std::min(max_depth, params().max_queue_depth);
  auto qp = std::make_unique<SocketQueuePair>(this, max_depth);
  rdma::QueuePair* out = qp.get();
  qps_.push_back(out);
  owned_qps_.push_back(std::move(qp));
  return out;
}

void SocketNic::DestroyQueuePair(rdma::QueuePair* qp) {
  if (qp == nullptr) return;
  auto* sqp = dynamic_cast<SocketQueuePair*>(qp);
  REDY_CHECK(sqp != nullptr);
  if (qp->peer() != nullptr) qp->peer()->Break();
  qp->Break();
  if (sqp->token() != 0) fab_->UnregisterQp(sqp->token());
  qps_.erase(std::remove(qps_.begin(), qps_.end(), qp), qps_.end());
  for (auto it = owned_qps_.begin(); it != owned_qps_.end(); ++it) {
    if (it->get() == qp) {
      owned_qps_.erase(it);
      break;
    }
  }
}

void SocketNic::Fail() {
  if (failed_) return;
  failed_ = true;
  const std::vector<rdma::QueuePair*> qps = qps_;
  for (rdma::QueuePair* qp : qps) {
    if (qp->peer() != nullptr) qp->peer()->Break();
    qp->Break();
  }
  for (const auto& [rkey, mr] : regions_) {
    fab_->RemoveSharedMr(rkey);
    mr->Invalidate();
  }
}

SocketQueuePair* SocketNic::CreateRemoteEndpoint(std::string host,
                                                 uint16_t port,
                                                 uint64_t remote_token) {
  auto qp = std::make_unique<SocketQueuePair>(this, std::move(host), port,
                                              remote_token);
  SocketQueuePair* out = qp.get();
  owned_qps_.push_back(std::move(qp));
  return out;
}

// ---------------------------------------------------------------------------
// SocketFabric

SocketFabric::SocketFabric(sim::Simulation* sim, WallClockDriver* driver,
                           net::Topology topology, net::FabricParams params,
                           Options options)
    : rdma::Fabric(sim, std::move(topology), params),
      driver_(driver),
      options_(std::move(options)),
      pool_(options_.workers) {
  // The listener takes streams dialed from other processes; each one's
  // kConnect frame routes it to its QP token. In-process queue pairs
  // share socketpairs instead and never come through here.
  const int lfd = ListenTcp(options_.listen_host, options_.port, 128, &port_);

  WorkerPool::Handlers handlers;
  handlers.on_frame = [this](WorkerPool::ConnId conn, uint64_t bound,
                             const FrameHeader& hdr,
                             std::vector<uint8_t> payload) {
    OnFrame(conn, bound, hdr, std::move(payload));
  };
  handlers.on_close = [this](WorkerPool::ConnId conn, uint64_t bound) {
    OnConnClosed(conn, bound);
  };
  pool_.Start(std::move(handlers));
  pool_.AddListener(lfd, [this](int fd) {
    // Accepted streams bind their QP token on the first kConnect frame.
    int nodelay = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
    pool_.AddConnection(fd, 0);
  });
}

SocketFabric::~SocketFabric() {
  ShutdownTransport();
  // NICs pull their regions out of this fabric's responder table as they
  // die; destroy them here, while the table still exists, not in
  // ~Fabric after it.
  nics_.clear();
}

void SocketFabric::ShutdownTransport() { pool_.Stop(); }

rdma::Nic* SocketFabric::NicAt(net::ServerId server) {
  auto it = nics_.find(server);
  if (it != nics_.end()) return it->second.get();
  auto nic = std::make_unique<SocketNic>(sim_, this, server);
  rdma::Nic* out = nic.get();
  nics_.emplace(server, std::move(nic));
  return out;
}

uint64_t SocketFabric::RegisterQp(SocketQueuePair* qp) {
  const uint64_t token = next_qp_token_++;
  qp_registry_.emplace(token, qp);
  return token;
}

void SocketFabric::UnregisterQp(uint64_t token) { qp_registry_.erase(token); }

void SocketFabric::AddSharedMr(uint32_t rkey, rdma::MemoryRegion* mr) {
  auto smr = std::make_shared<SharedMr>();
  smr->mr = mr;
  std::lock_guard<std::mutex> lk(mr_mu_);
  shared_mrs_.emplace(rkey, std::move(smr));
}

void SocketFabric::RemoveSharedMr(uint32_t rkey) {
  std::shared_ptr<SharedMr> smr;
  {
    std::lock_guard<std::mutex> lk(mr_mu_);
    auto it = shared_mrs_.find(rkey);
    if (it == shared_mrs_.end()) return;
    smr = std::move(it->second);
    shared_mrs_.erase(it);
  }
  // A responder that looked this rkey up before the erase touches the
  // region only under the apply mutex, and only while `mr` is set.
  std::lock_guard<std::mutex> drain(smr->apply_mu);
  smr->mr = nullptr;
}

std::shared_ptr<SocketFabric::SharedMr> SocketFabric::LookupSharedMr(
    uint32_t rkey) {
  std::lock_guard<std::mutex> lk(mr_mu_);
  auto it = shared_mrs_.find(rkey);
  return it == shared_mrs_.end() ? nullptr : it->second;
}

void SocketFabric::OnFrame(WorkerPool::ConnId conn, uint64_t bound_token,
                           const FrameHeader& hdr,
                           std::vector<uint8_t> payload) {
  switch (static_cast<FrameType>(hdr.type)) {
    case FrameType::kConnect: {
      driver_->Post([this, token = hdr.aux, conn] {
        BindAcceptedConn(token, conn);
      });
      return;
    }
    case FrameType::kWrite: {
      // Applied here on the worker; the loop only runs the notifier.
      const uint8_t status = Respond(hdr.rkey, [&](rdma::MemoryRegion& mr) {
        return rdma::responder::Write(mr, hdr.epoch, hdr.offset,
                                      payload.data(), payload.size());
      });
      if (status == Code(StatusCode::kOk)) {
        driver_->Post(
            [this, rkey = hdr.rkey] { NotifyRemoteWriteOnLoop(rkey); });
      }
      FrameHeader ack;
      ack.type = static_cast<uint8_t>(FrameType::kWriteAck);
      ack.status = status;
      ack.token = hdr.token;
      pool_.Send(conn, EncodeFrame(ack, nullptr, 0));
      return;
    }
    case FrameType::kRead: {
      // The reply is built in place: the snapshot lands right behind its
      // header. A length past the 32-bit frame limit is out of bounds.
      FrameHeader resp;
      resp.type = static_cast<uint8_t>(FrameType::kReadResp);
      resp.status = Code(StatusCode::kAborted);
      resp.token = hdr.token;
      std::vector<uint8_t> frame(sizeof(FrameHeader));
      if (hdr.aux <= UINT32_MAX) {
        frame.resize(sizeof(FrameHeader) + hdr.aux);
        resp.status = Respond(hdr.rkey, [&](rdma::MemoryRegion& mr) {
          return rdma::responder::Read(mr, hdr.offset, hdr.aux,
                                       frame.data() + sizeof(FrameHeader));
        });
        if (resp.status != Code(StatusCode::kOk)) {
          frame.resize(sizeof(FrameHeader));
        }
      }
      resp.aux = resp.payload_len =
          static_cast<uint32_t>(frame.size() - sizeof(FrameHeader));
      std::memcpy(frame.data(), &resp, sizeof(resp));
      pool_.Send(conn, std::move(frame));
      return;
    }
    case FrameType::kChain: {
      // Chain responder: the epoll worker runs every hop server-side,
      // so a multi-op dependent sequence costs the client one doorbell
      // and one wire round trip (DESIGN.md §15).
      std::vector<uint8_t> data;
      uint64_t hops_done = 0;
      const uint8_t status = ExecuteChain(hdr, payload, &data, &hops_done);
      FrameHeader resp;
      resp.type = static_cast<uint8_t>(FrameType::kChainResp);
      resp.status = status;
      resp.token = hdr.token;
      resp.aux = hops_done;
      pool_.Send(conn, EncodeFrame(resp, data.data(), data.size()));
      return;
    }
    case FrameType::kWriteAck:
    case FrameType::kReadResp:
    case FrameType::kChainResp: {
      driver_->Post([this, bound_token, token = hdr.token,
                     status = hdr.status, aux = hdr.aux,
                     p = std::move(payload)]() mutable {
        DeliverAck(bound_token, token, status, aux, std::move(p));
      });
      return;
    }
  }
  pool_.Close(conn);  // unknown frame type: protocol violation
}

void SocketFabric::OnConnClosed(WorkerPool::ConnId conn, uint64_t bound_token) {
  if (bound_token == 0) return;
  driver_->Post([this, bound_token, conn] {
    QpTransportClosed(bound_token, conn);
  });
}

template <typename Fn>
uint8_t SocketFabric::Respond(uint32_t rkey, Fn&& fn) {
  const std::shared_ptr<SharedMr> smr = LookupSharedMr(rkey);
  if (smr == nullptr) return Code(StatusCode::kProtectionError);
  std::lock_guard<std::mutex> lk(smr->apply_mu);
  rdma::MemoryRegion* mr = smr->mr;
  if (mr == nullptr) return Code(StatusCode::kProtectionError);
  const StatusCode status = fn(*mr);
  if (status == StatusCode::kProtectionError) {
    // Fenced. Count it on the loop (telemetry counters hang off
    // loop-built NIC state).
    driver_->Post([nic = mr->nic()] { nic->CountProtectionError(); });
  }
  return Code(status);
}

uint8_t SocketFabric::ExecuteChain(const FrameHeader& hdr,
                                   const std::vector<uint8_t>& payload,
                                   std::vector<uint8_t>* out,
                                   uint64_t* hops_done) {
  // Frame boundary: exactly `aux` descriptors, each flagged with nothing
  // but kAddrFromPrev, or no hop runs.
  const uint64_t num_hops = hdr.aux;
  if (num_hops == 0 || num_hops > rdma::kMaxChainHops ||
      payload.size() != num_hops * sizeof(ChainHopWire)) {
    return Code(StatusCode::kInvalidArgument);
  }
  rdma::ChainHop hops[rdma::kMaxChainHops];
  for (uint64_t i = 0; i < num_hops; i++) {
    ChainHopWire w;
    std::memcpy(&w, payload.data() + i * sizeof(w), sizeof(w));
    if ((w.flags & ~ChainHopWire::kAddrFromPrev) != 0) {
      return Code(StatusCode::kInvalidArgument);
    }
    hops[i] = FromWire(w);
  }
  uint64_t prev_word = 0;
  for (uint64_t i = 0; i < num_hops; i++) {
    const uint8_t status =
        Respond(hops[i].key.rkey, [&](const rdma::MemoryRegion& mr) {
          return rdma::responder::ChainHop(mr, hops[i], &prev_word, out);
        });
    if (status != Code(StatusCode::kOk)) return status;
    (*hops_done)++;
  }
  return Code(StatusCode::kOk);
}

void SocketFabric::BindAcceptedConn(uint64_t qp_token,
                                    WorkerPool::ConnId conn) {
  auto it = qp_registry_.find(qp_token);
  if (it == qp_registry_.end()) {
    pool_.Close(conn);
    return;
  }
  it->second->OnAccepted(conn);
}

void SocketFabric::DeliverAck(uint64_t qp_token, uint64_t op_token,
                              uint8_t status, uint64_t aux,
                              std::vector<uint8_t> payload) {
  auto it = qp_registry_.find(qp_token);
  if (it == qp_registry_.end()) return;
  it->second->CompleteOp(op_token, static_cast<StatusCode>(status), aux,
                         std::move(payload));
}

rdma::MemoryRegion* SocketFabric::RegionOnLoop(uint32_t rkey) {
  const std::shared_ptr<SharedMr> smr = LookupSharedMr(rkey);
  return smr == nullptr ? nullptr : smr->mr;
}

bool SocketFabric::HasRemoteWriteNotifier(uint32_t rkey) {
  const rdma::MemoryRegion* mr = RegionOnLoop(rkey);
  return mr != nullptr && mr->has_remote_write_notifier();
}

void SocketFabric::NotifyRemoteWriteOnLoop(uint32_t rkey) {
  // Loop thread; notifier installation/teardown is loop-side too.
  if (rdma::MemoryRegion* mr = RegionOnLoop(rkey)) mr->NotifyRemoteWrite();
}

void SocketFabric::QpTransportClosed(uint64_t qp_token,
                                     WorkerPool::ConnId conn) {
  auto it = qp_registry_.find(qp_token);
  if (it == qp_registry_.end()) return;
  it->second->OnTransportClosed(conn);
}

}  // namespace redy::transport
