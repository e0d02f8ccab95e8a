#ifndef REDY_TRANSPORT_SOCKET_FABRIC_H_
#define REDY_TRANSPORT_SOCKET_FABRIC_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/vec_deque.h"
#include "rdma/nic.h"
#include "rdma/queue_pair.h"
#include "transport/frame.h"
#include "transport/wall_clock.h"
#include "transport/worker_pool.h"

namespace redy::transport {

class SocketFabric;
class SocketNic;

/// A queue pair carried by one stream socket (DESIGN.md §13). Posts run
/// on the application loop thread: the payload is snapshotted into an
/// outbound frame at post time (the socket analogue of the simulated
/// NIC's inline/PCIe snapshot — worker threads never read MR payload
/// memory on the send side), a pending-op record keyed by a
/// monotonically increasing op token is parked, and the frame is handed
/// to the owning epoll worker. Acks flow back through the driver
/// mailbox.
///
/// A READ or WRITE to a peer in this process sends no frame: the loop
/// runs the responder itself (SocketFabric::Respond on the peer's
/// fabric), copying straight between the two regions, and posts the ack
/// to its own driver mailbox. A direct op's ack thus comes through the
/// mailbox at once while a framed op's comes back later from a worker,
/// so acks can arrive out of post order; CompleteOp holds an early ack
/// until every earlier op has completed, which keeps the RC QP's
/// in-order completion guarantee. RC ordering also says ops on one QP
/// take effect in post order, so an op takes the framed path instead
/// while an earlier framed op it could observe or overwrite is unacked:
/// for a READ, an overlapping WRITE to the same rkey; for a WRITE, an
/// overlapping READ or WRITE to the same rkey or any chain (a chain
/// reads). A WRITE into a region with a remote-write notifier (a polled
/// batch ring) stays framed too, and so does a WRITE to a peer fabric
/// driven by another loop, whose notifiers this loop may not read.
///
/// Connect() joins two queue pairs of this process with one AF_UNIX
/// socketpair, each end pre-bound to its QP, so both ends are connected
/// when it returns. A SocketQueuePair can also be a *remote endpoint
/// descriptor*: a placeholder carrying (host, port, token) for a QP
/// living in another process. Connecting to one dials TCP, and the
/// remote fabric's listener binds the accepted stream to the QP named
/// by the kConnect frame. The same client code thus works in-process
/// (loopback tests/bench) and cross-process (example binaries).
class SocketQueuePair : public rdma::QueuePair {
 public:
  SocketQueuePair(SocketNic* nic, uint32_t max_depth);
  /// Remote endpoint descriptor (see above). Never posted on directly.
  SocketQueuePair(SocketNic* nic, std::string host, uint16_t port,
                  uint64_t remote_token);
  ~SocketQueuePair() override;

  Status Connect(rdma::QueuePair* peer) override;
  Status PostRead(uint64_t wr_id, rdma::MemoryRegion* mr,
                  uint64_t local_offset, rdma::RemoteKey key,
                  uint64_t remote_offset, uint64_t len) override;
  Status PostWrite(uint64_t wr_id, const rdma::MemoryRegion* mr,
                   uint64_t local_offset, rdma::RemoteKey key,
                   uint64_t remote_offset, uint64_t len) override;
  Status PostChain(uint64_t wr_id, rdma::MemoryRegion* mr,
                   const rdma::ChainHop* hops, uint32_t num_hops) override;
  void Break() override;
  bool connected() const override { return connected_; }

  /// Fabric-wide routing token (0 for remote endpoint descriptors).
  uint64_t token() const { return token_; }
  bool is_remote_endpoint() const { return remote_endpoint_; }

 private:
  friend class SocketFabric;
  friend class SocketNic;

  struct PendingOp {
    PendingOp() = default;
    PendingOp(uint64_t wr, rdma::Opcode op, uint64_t bytes)
        : wr_id(wr), opcode(op), len(static_cast<uint32_t>(bytes)) {}

    uint64_t wr_id = 0;
    rdma::Opcode opcode = rdma::Opcode::kWrite;
    /// rkey of the local region a framed READ or chain lands in, 0 when
    /// nothing lands at completion. The region may be deregistered while
    /// the op is in flight, so completion resolves it again.
    uint32_t landing_key = 0;
    uint64_t local_offset = 0;
    uint32_t len = 0;
    /// kRead/kWrite: the target, so a later op can tell whether it
    /// might observe or overwrite this one.
    uint32_t rkey = 0;
    uint64_t remote_offset = 0;
    /// kChain only: the posted hops, kept so the single response's
    /// concatenated payloads scatter back to each hop's local landing
    /// offset.
    std::vector<rdma::ChainHop> chain_hops;
    /// Set when the responder ran on the loop at post time, so the op's
    /// bytes have already moved and no later op orders behind it.
    bool direct = false;
    /// Set when the op's ack has been applied; its completion waits in
    /// `status` until every earlier op has completed too.
    bool done = false;
    StatusCode status = StatusCode::kOk;
  };

  Status CheckSendable() const;
  /// Parks `op` under the next op token and hands its frame (encoded
  /// with that token) to the stream.
  void Issue(PendingOp op, std::vector<uint8_t> frame);
  /// Parks `op` under the next op token, counting it as posted.
  void Park(PendingOp op);
  /// Parks `op`, whose responder has just run on this loop and answered
  /// `status`, and posts its ack to the driver mailbox.
  void ParkDirect(PendingOp op, uint8_t status);
  /// The peer's fabric when the peer is a queue pair of this process,
  /// else nullptr.
  SocketFabric* PeerFabric() const;
  /// Whether an earlier framed op, not yet acked, must take effect before
  /// a READ (`write` false) or WRITE (`write` true) of
  /// [offset, offset + len) under `rkey`: an overlapping WRITE for a
  /// READ; an overlapping READ or WRITE or any chain for a WRITE.
  bool MustFollowFramedOp(bool write, uint32_t rkey, uint64_t offset,
                          uint64_t len) const;
  /// Loop-side: an ack/response frame for op `op_token` arrived. `aux`
  /// echoes the response header's aux word (executed hop count for
  /// kChainResp; unused for the other acks).
  void CompleteOp(uint64_t op_token, StatusCode status, uint64_t aux,
                  std::vector<uint8_t> payload);
  /// Loop-side: a stream dialed from another process named this QP in
  /// its kConnect frame.
  void OnAccepted(WorkerPool::ConnId conn);
  /// Loop-side: stream `conn` died; breaks the QP if it was its own.
  void OnTransportClosed(WorkerPool::ConnId conn);

  SocketFabric* fab_;
  uint64_t token_ = 0;
  bool remote_endpoint_ = false;
  std::string host_;
  uint16_t port_ = 0;
  uint64_t remote_token_ = 0;
  /// True while the QP owns a live stream `conn_`.
  bool connected_ = false;
  WorkerPool::ConnId conn_ = 0;
  uint64_t next_op_token_ = 1;
  /// Posted, not yet completed ops in post order; pending_[i] carries op
  /// token front_token_ + i. Loop-thread only.
  common::VecDeque<PendingOp> pending_;
  uint64_t front_token_ = 1;
};

/// The NIC of one server on the socket backend. Regions and queue pairs
/// are created on the application loop exactly as on the simulated NIC
/// (the base class bookkeeping is reused), with two additions: rkeys
/// come from a fabric-wide namespace, and every registered region is
/// mirrored into the fabric's mutex-guarded responder table so epoll
/// workers can resolve, fence-check, and apply one-sided ops without
/// ever entering the loop. Deregistration first unlinks the region from
/// that table, which waits out any responder still touching it, and
/// then frees its storage at once. A framed READ or chain whose landing
/// region is gone by completion lands nothing and fails with
/// kProtectionError.
class SocketNic : public rdma::Nic {
 public:
  SocketNic(sim::Simulation* sim, SocketFabric* fabric, net::ServerId server);
  ~SocketNic() override;

  rdma::MemoryRegion* RegisterMemory(uint64_t bytes) override;
  void DeregisterMemory(rdma::MemoryRegion* mr) override;
  rdma::QueuePair* CreateQueuePair(uint32_t max_depth) override;
  void DestroyQueuePair(rdma::QueuePair* qp) override;
  void Fail() override;

  SocketFabric* socket_fabric() const { return fab_; }

  /// Builds a remote endpoint descriptor owned by this NIC (used by the
  /// cross-process control plane to materialize ConnectionInfo).
  SocketQueuePair* CreateRemoteEndpoint(std::string host, uint16_t port,
                                        uint64_t remote_token);

 private:
  SocketFabric* fab_;
};

/// The socket-backed fabric: one epoll worker pool carrying every queue
/// pair stream of this process, one listening TCP socket for streams
/// dialed from other processes, and the loop-side routing tables gluing
/// frames back to queue pairs. NicAt() hands out SocketNics, so the
/// whole construction the deterministic stack performs — fabric → NIC →
/// regions/QPs — builds a real networked process instead of a simulated
/// one, with no caller changes (DESIGN.md §13).
class SocketFabric : public rdma::Fabric {
 public:
  struct Options {
    int workers = 2;
    /// 0 picks an ephemeral port (loopback tests); the example server
    /// binds a fixed one.
    uint16_t port = 0;
    std::string listen_host = "127.0.0.1";
  };

  SocketFabric(sim::Simulation* sim, WallClockDriver* driver,
               net::Topology topology, net::FabricParams params,
               Options options);
  ~SocketFabric() override;

  rdma::Nic* NicAt(net::ServerId server) override;

  /// Stops the worker pool (no more frames). Call before stopping the
  /// driver; the destructor does it as a backstop.
  void ShutdownTransport();

  uint16_t port() const { return port_; }
  const std::string& listen_host() const { return options_.listen_host; }
  WallClockDriver* driver() const { return driver_; }
  WorkerPool& pool() { return pool_; }

  /// Responder-table entry of one registered region. RemoveSharedMr
  /// clears `mr` under `apply_mu`, and every responder checks it under
  /// the mutex: a worker serving a frame, or the loop serving a direct
  /// READ or WRITE for an in-process peer. So once RemoveSharedMr returns
  /// nothing can touch the region. Only the loop writes `mr`, so the loop
  /// may read it without the mutex.
  struct SharedMr {
    std::mutex apply_mu;
    rdma::MemoryRegion* mr = nullptr;
  };

  // --- loop-side registries (application loop thread only) ---
  uint32_t AllocRkey() { return next_rkey_++; }
  uint64_t RegisterQp(SocketQueuePair* qp);
  void UnregisterQp(uint64_t token);

  // --- responder table (any thread) ---
  void AddSharedMr(uint32_t rkey, rdma::MemoryRegion* mr);
  /// Erases the rkey, waits out any in-flight responder and clears the
  /// entry's region pointer, so the caller may free the region's storage.
  void RemoveSharedMr(uint32_t rkey);
  std::shared_ptr<SharedMr> LookupSharedMr(uint32_t rkey);

 private:
  friend class SocketQueuePair;
  friend class SocketNic;

  // Worker-side frame dispatch.
  void OnFrame(WorkerPool::ConnId conn, uint64_t bound_token,
               const FrameHeader& hdr, std::vector<uint8_t> payload);
  void OnConnClosed(WorkerPool::ConnId conn, uint64_t bound_token);
  /// The responder, for framed and direct ops alike: runs `fn`, one
  /// rdma/responder.h call, on the region under `rkey` with its apply
  /// mutex held. A region that is gone answers kProtectionError; a
  /// fenced answer is counted on the loop. No notifier runs.
  template <typename Fn>
  uint8_t Respond(uint32_t rkey, Fn&& fn);
  /// Worker-side chain responder: decodes the kChain frame, answering
  /// kInvalidArgument before any hop runs if it is malformed, then runs
  /// its hops in order, appending their payloads to `out`; `hops_done`
  /// reports how many hops ran before success/abort.
  uint8_t ExecuteChain(const FrameHeader& hdr,
                       const std::vector<uint8_t>& payload,
                       std::vector<uint8_t>* out, uint64_t* hops_done);

  // Loop-side continuations.
  void BindAcceptedConn(uint64_t qp_token, WorkerPool::ConnId conn);
  void DeliverAck(uint64_t qp_token, uint64_t op_token, uint8_t status,
                  uint64_t aux, std::vector<uint8_t> payload);
  /// Loop-side: the registered region under `rkey`, or nullptr.
  rdma::MemoryRegion* RegionOnLoop(uint32_t rkey);
  /// Loop-side: whether a write into `rkey` must wake a poller.
  bool HasRemoteWriteNotifier(uint32_t rkey);
  void NotifyRemoteWriteOnLoop(uint32_t rkey);
  void QpTransportClosed(uint64_t qp_token, WorkerPool::ConnId conn);

  WallClockDriver* driver_;
  Options options_;
  WorkerPool pool_;
  uint16_t port_ = 0;

  // Loop-thread state.
  uint32_t next_rkey_ = 1;
  uint64_t next_qp_token_ = 1;
  std::unordered_map<uint64_t, SocketQueuePair*> qp_registry_;

  // Worker-shared responder table.
  std::mutex mr_mu_;
  std::unordered_map<uint32_t, std::shared_ptr<SharedMr>> shared_mrs_;
};

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_SOCKET_FABRIC_H_
