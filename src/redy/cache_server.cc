#include "redy/cache_server.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "rdma/responder.h"
#include "sim/inline_function.h"

namespace redy {

CacheServer::CacheServer(sim::Simulation* sim, rdma::Fabric* fabric,
                         const cluster::Vm& vm, const CostModel& costs)
    : sim_(sim),
      nic_(fabric->NicAt(vm.server)),
      vm_(vm),
      costs_(costs),
      rng_(0xCACE ^ vm.id) {}

CacheServer::~CacheServer() { Shutdown(); }

Result<std::vector<rdma::RemoteKey>> CacheServer::AllocateRegions(
    uint32_t n, uint64_t bytes) {
  if (shutdown_) return Status::Unavailable("server shut down");
  const uint64_t need = static_cast<uint64_t>(n) * bytes;
  if (nic_->registered_bytes() + need > vm_.memory_bytes) {
    return Status::ResourceExhausted("VM memory exhausted");
  }
  std::vector<rdma::RemoteKey> keys;
  keys.reserve(n);
  for (uint32_t i = 0; i < n; i++) {
    rdma::MemoryRegion* mr = nic_->RegisterMemory(bytes);
    regions_.push_back(mr);
    keys.push_back(mr->remote_key());
  }
  return keys;
}

Result<CacheServer::ConnectionInfo> CacheServer::Connect(
    const RdmaConfig& cfg, uint32_t record_bytes) {
  if (shutdown_) return Status::Unavailable("server shut down");
  cfg_ = cfg;

  auto conn = std::make_unique<Connection>();
  conn->qp = nic_->CreateQueuePair(cfg.q);
  conn->queue_depth = cfg.q;

  ConnectionInfo info;
  info.server_qp = conn->qp;
  info.queue_depth = cfg.q;
  for (auto* mr : regions_) info.region_keys.push_back(mr->remote_key());

  if (cfg.s > 0) {
    // Two-sided path: allocate the request message ring clients write
    // into and the staging buffer responses are posted from.
    conn->request_slot_bytes = RequestSlotBytes(cfg.b, record_bytes);
    conn->response_slot_bytes = ResponseSlotBytes(cfg.b, record_bytes);
    conn->request_ring =
        nic_->RegisterMemory(conn->request_slot_bytes * cfg.q);
    conn->response_staging =
        nic_->RegisterMemory(conn->response_slot_bytes * cfg.q);
    info.request_ring_key = conn->request_ring->remote_key();
    info.request_slot_bytes = conn->request_slot_bytes;
    // A batch landing in the request ring is what a busy-polling server
    // thread would snoop; use it to wake the owning thread if parked.
    // Capture the index, not the thread pointer: threads are created by
    // Start() (possibly after Connect) and torn down by Shutdown().
    const uint32_t conn_index = static_cast<uint32_t>(connections_.size());
    conn->request_ring->SetRemoteWriteNotifier(
        [this, conn_index] { WakeThread(conn_index); });
  }

  info.conn_index = static_cast<uint32_t>(connections_.size());
  connections_.push_back(std::move(conn));
  return info;
}

Status CacheServer::SetResponseRing(uint32_t conn, rdma::RemoteKey key,
                                    uint64_t slot_bytes) {
  if (conn >= connections_.size()) {
    return Status::InvalidArgument("unknown connection");
  }
  connections_[conn]->client_response_ring = key;
  connections_[conn]->response_slot_bytes = slot_bytes;
  return Status::OK();
}

void CacheServer::Start(const RdmaConfig& cfg) {
  cfg_ = cfg;
  if (cfg.s == 0 || !threads_.empty()) return;
  // Sized once here so the poll path never reallocates (DESIGN.md §10).
  idle_streaks_.assign(cfg.s, 0);
  rr_cursors_.assign(cfg.s, 0);
  for (uint32_t t = 0; t < cfg.s; t++) {
    auto poller = std::make_unique<sim::Poller>(
        sim_, costs_.poll_interval_ns,
        [this, t]() -> uint64_t { return PollConnections(t); });
    poller->Start();
    threads_.push_back(std::move(poller));
  }
}

void CacheServer::Shutdown() {
  if (shutdown_) return;
  shutdown_ = true;
  for (auto& t : threads_) t->Stop();
  threads_.clear();
  for (auto& c : connections_) {
    if (c->qp != nullptr) c->qp->Break();
    if (c->request_ring != nullptr) nic_->DeregisterMemory(c->request_ring);
    if (c->response_staging != nullptr) {
      nic_->DeregisterMemory(c->response_staging);
    }
    c->request_ring = nullptr;
    c->response_staging = nullptr;
  }
  for (auto* mr : regions_) nic_->DeregisterMemory(mr);
  regions_.clear();
}

bool CacheServer::BatchReady(const Connection& conn) const {
  if (conn.request_ring == nullptr) return false;
  const uint64_t slot = (conn.next_seq - 1) % conn.queue_depth;
  const uint8_t* base =
      conn.request_ring->data() + slot * conn.request_slot_bytes;
  return LoadBatchSeqAcquire(base) == conn.next_seq;
}

uint64_t CacheServer::PollConnections(uint32_t thread_index) {
  // Connections are statically partitioned over server threads
  // (connection i belongs to thread i % s).
  uint64_t consumed = 0;
  const uint32_t s = cfg_.s == 0 ? 1 : cfg_.s;
  bool any = false;
  bool blocked = false;
  // The thread's connections, as a dense index: the k-th owned
  // connection is thread_index + k*s.
  const uint32_t owned = connections_.size() > thread_index
                             ? static_cast<uint32_t>(
                                   (connections_.size() - thread_index - 1) /
                                       s +
                                   1)
                             : 0;
  // Ready backlog across the thread's connections: sizes the credit
  // grants and the shed decision for every batch this sweep consumes.
  uint32_t backlog = 0;
  if (policy_.credit_flow || policy_.busy_pushback) {
    for (uint32_t k = 0; k < owned; k++) {
      if (BatchReady(*connections_[thread_index + k * s])) backlog++;
    }
  }
  // Fair queueing: rotate the sweep's starting connection so the
  // one-batch quantum circulates — with a persistent backlog, a fixed
  // order would hand the first connection every quantum first.
  const uint32_t start = owned > 0 ? rr_cursors_[thread_index] % owned : 0;
  for (uint32_t k = 0; k < owned; k++) {
    const size_t i = thread_index +
                     static_cast<size_t>((start + k) % owned) * s;
    uint64_t c = ProcessBatch(*connections_[i], backlog, &blocked);
    if (c > 0) any = true;
    consumed += c;
  }
  if (owned > 0) rr_cursors_[thread_index]++;
  if (!any) {
    consumed += costs_.idle_poll_ns;
    if (!costs_.numa_affinitized) {
      consumed = std::max(consumed, costs_.numa_idle_poll_ns);
      if (rng_.Bernoulli(costs_.sched_stall_probability)) {
        consumed += static_cast<uint64_t>(rng_.Exponential(
            static_cast<double>(costs_.sched_stall_mean_ns)));
      }
    }
    idle_streaks_[thread_index]++;
    if (costs_.park_idle_pollers && costs_.numa_affinitized) {
      // Every way work can arrive here is a request-ring write, which
      // wakes us via the notifier — except a depth-blocked batch, whose
      // unblocking deferred post makes no ring write; keep polling then.
      if (!blocked &&
          idle_streaks_[thread_index] >= costs_.park_after_idle_polls) {
        threads_[thread_index]->Park();
      }
    } else {
      // Legacy exponential idle back-off (kept for the !numa path whose
      // idle sweep has rng side effects parking would elide).
      const uint32_t doublings =
          std::min(idle_streaks_[thread_index] / 64, 11u);
      consumed = std::max<uint64_t>(consumed,
                                    costs_.poll_interval_ns << doublings);
    }
  } else if (thread_index < idle_streaks_.size()) {
    idle_streaks_[thread_index] = 0;
  }
  return consumed;
}

void CacheServer::WakeThread(uint32_t conn_index) {
  if (shutdown_ || threads_.empty()) return;
  threads_[conn_index % threads_.size()]->Wake();
}

uint32_t CacheServer::GrantCredits(uint32_t backlog) const {
  const uint32_t q = cfg_.q == 0 ? 1 : cfg_.q;
  if (!policy_.credit_flow) return 0;  // no grant carried
  if (backlog >= policy_.shed_high_watermark) return 1;
  if (backlog >= policy_.shed_low_watermark) return std::max(q / 2, 1u);
  return q;
}

uint64_t CacheServer::ProcessBatch(Connection& conn, uint32_t backlog,
                                   bool* blocked) {
  if (conn.request_ring == nullptr) return 0;
  const uint32_t q = conn.queue_depth;
  const uint64_t slot = (conn.next_seq - 1) % q;
  uint8_t* base = conn.request_ring->data() + slot * conn.request_slot_bytes;

  // Acquire-gate on the seq word before reading the batch: over the
  // socket backend the responder publishes it last (release), so this
  // load carries the whole deposit with it.
  if (LoadBatchSeqAcquire(base) != conn.next_seq) return 0;
  BatchHeader hdr;
  std::memcpy(&hdr, base, sizeof(hdr));

  // Don't consume a batch until the response write can be posted
  // (counting responses whose deferred post hasn't fired yet).
  if (conn.qp->outstanding() + conn.pending_posts >=
      conn.qp->max_depth()) {
    *blocked = true;
    return 0;
  }

  uint64_t consumed = costs_.server_batch_detect_ns +
                      costs_.server_batch_overhead_ns;
  if (!costs_.numa_affinitized) consumed += costs_.numa_penalty_ns;

  // Overload pushback (DESIGN.md §12): past the backlog watermarks,
  // cheap-reject the whole batch with per-op kBusy responses instead of
  // executing it — lowest tenant priority first, never batches carrying
  // lease control ops. The header pre-walk mirrors the execution walk's
  // bounds checks; a malformed batch falls through to the hardened main
  // loop rather than being shed.
  bool shed = false;
  if (policy_.busy_pushback && backlog >= policy_.shed_low_watermark &&
      hdr.bytes >= sizeof(BatchHeader) &&
      hdr.bytes <= conn.request_slot_bytes) {
    const uint8_t* walk = base + sizeof(BatchHeader);
    const uint8_t* const walk_end = base + hdr.bytes;
    uint8_t priority = 0;
    bool has_lease = false;
    bool walk_ok = true;
    for (uint32_t i = 0; i < hdr.count; i++) {
      if (walk + sizeof(RequestHeader) > walk_end) {
        walk_ok = false;
        break;
      }
      RequestHeader rh;
      std::memcpy(&rh, walk, sizeof(rh));
      walk += sizeof(rh);
      if (rh.op == OpCode::kWrite) {
        if (rh.len > static_cast<uint64_t>(walk_end - walk)) {
          walk_ok = false;
          break;
        }
        walk += rh.len;
      }
      if (rh.op == OpCode::kLease) has_lease = true;
      priority = std::max(priority, rh.priority);
    }
    if (walk_ok && !has_lease) {
      shed = (priority >= 2) ||
             (priority >= 1 && backlog >= policy_.shed_high_watermark);
    }
  }

  // Build the response batch in the staging slot while executing.
  uint8_t* resp_base =
      conn.response_staging->data() + slot * conn.response_slot_bytes;
  uint64_t resp_off = sizeof(BatchHeader);

  // Structural hardening: never walk past the batch's declared end (or
  // the slot, whichever is smaller). A malformed batch stops the walk;
  // the short response count surfaces on the client as a typed
  // kDataCorruption, not a misparse.
  const uint8_t* req = base + sizeof(BatchHeader);
  const uint8_t* const req_end =
      base + std::min<uint64_t>(hdr.bytes, conn.request_slot_bytes);
  bool malformed =
      hdr.bytes < sizeof(BatchHeader) || hdr.bytes > conn.request_slot_bytes;
  uint32_t processed = 0;
  for (uint32_t i = 0; !malformed && i < hdr.count; i++) {
    if (req + sizeof(RequestHeader) > req_end) {
      malformed = true;
      break;
    }
    RequestHeader rh;
    std::memcpy(&rh, req, sizeof(rh));
    req += sizeof(rh);
    if (rh.op == OpCode::kWrite &&
        rh.len > static_cast<uint64_t>(req_end - req)) {
      malformed = true;
      break;
    }

    ResponseHeader resp;
    resp.op = static_cast<uint8_t>(rh.op);
    resp.len = 0;
    if (shed) {
      // Canned rejection: no region lookup, no payload movement — the
      // whole point of pushback is that this path is far cheaper than
      // execution, so a saturated server recovers capacity by shedding.
      consumed += costs_.server_reject_ns;
      resp.status = static_cast<uint8_t>(StatusCode::kBusy);
      resp.epoch = 0;
      resp.checksum = ResponseChecksum(
          resp, resp_base + resp_off + sizeof(ResponseHeader));
      std::memcpy(resp_base + resp_off, &resp, sizeof(resp));
      resp_off += sizeof(resp);
      if (rh.op == OpCode::kWrite) req += rh.len;
      processed++;
      busy_shed_ops_++;
      continue;
    }
    consumed += costs_.server_request_ns;

    rdma::MemoryRegion* region =
        rh.region < regions_.size() ? regions_[rh.region] : nullptr;
    // Responses echo the region's *current* epoch; a kLease response's
    // epoch is the granted lease token.
    resp.epoch = region != nullptr ? region->epoch() : 0;
    // The directly-addressed span: a kReadPtr touches the 8-byte pointer
    // word at rh.offset; the data range it names is bounds-checked after
    // the chase below.
    const uint64_t direct_len = rh.op == OpCode::kReadPtr ? 8 : rh.len;
    if (region == nullptr || !region->InBounds(rh.offset, direct_len) ||
        // Defensive: a response larger than the slot would corrupt the
        // staging ring (the client routes such ops one-sided).
        resp_off + sizeof(ResponseHeader) + rh.len >
            conn.response_slot_bytes) {
      resp.status = static_cast<uint8_t>(StatusCode::kOutOfRange);
    } else if (RequestChecksum(rh, req) != rh.checksum) {
      // End-to-end integrity: the op (and, for writes, its payload)
      // does not match what the client staged. Never apply it.
      resp.status = static_cast<uint8_t>(StatusCode::kDataCorruption);
    } else if (rh.op == OpCode::kLease) {
      resp.status = static_cast<uint8_t>(StatusCode::kOk);
    } else if (rh.op == OpCode::kWrite) {
      // A write under a key revoked at a migration cutover is fenced
      // (kProtectionError) instead of landing on memory that may have
      // moved on.
      resp.status = static_cast<uint8_t>(
          rdma::responder::Write(*region, rh.epoch, rh.offset, req, rh.len));
      if (resp.status == static_cast<uint8_t>(StatusCode::kOk)) {
        consumed +=
            static_cast<uint64_t>(costs_.server_ns_per_byte * rh.len);
      }
    } else if (rh.op == OpCode::kReadPtr) {
      // Server-side pointer chase: the two-sided twin of the NIC op
      // chain (DESIGN.md §15). Resolve the 8-byte pointer word, then
      // serve the data it names — one request, one response, one
      // client wakeup for the whole dependent sequence. Fenced like a
      // chain hop.
      if (rdma::responder::Fence(*region, rh.epoch) != StatusCode::kOk) {
        resp.status = static_cast<uint8_t>(StatusCode::kProtectionError);
      } else {
        uint64_t word = 0;
        std::memcpy(&word, region->data() + rh.offset, sizeof(word));
        if (!region->InBounds(word, rh.len)) {
          resp.status = static_cast<uint8_t>(StatusCode::kOutOfRange);
        } else {
          std::memcpy(resp_base + resp_off + sizeof(ResponseHeader),
                      region->data() + word, rh.len);
          // The chase costs one extra request-processing step on top
          // of the per-byte copy.
          consumed += costs_.server_request_ns;
          consumed +=
              static_cast<uint64_t>(costs_.server_ns_per_byte * rh.len);
          resp.status = static_cast<uint8_t>(StatusCode::kOk);
          resp.len = rh.len;
        }
      }
    } else {
      // Read: copy region bytes into the response payload.
      resp.status = static_cast<uint8_t>(rdma::responder::Read(
          *region, rh.offset, rh.len,
          resp_base + resp_off + sizeof(ResponseHeader)));
      consumed += static_cast<uint64_t>(costs_.server_ns_per_byte * rh.len);
      resp.len = rh.len;
    }
    resp.checksum =
        ResponseChecksum(resp, resp_base + resp_off + sizeof(ResponseHeader));
    std::memcpy(resp_base + resp_off, &resp, sizeof(resp));
    resp_off += sizeof(resp) + resp.len;
    if (rh.op == OpCode::kWrite) req += rh.len;
    processed++;
  }

  if (shed) busy_shed_batches_++;

  BatchHeader resp_hdr;
  resp_hdr.seq = hdr.seq;
  resp_hdr.count = processed;
  resp_hdr.bytes = static_cast<uint32_t>(resp_off);
  // Piggybacked credit grant: the client shrinks (or restores) its
  // send window to what the server can absorb right now.
  resp_hdr.credits = GrantCredits(backlog);
  if (resp_hdr.credits != 0 && resp_hdr.credits < cfg_.q) {
    credit_throttled_++;
  }
  std::memcpy(resp_base, &resp_hdr, sizeof(resp_hdr));

  consumed += conn.qp->PostCostNs(
      resp_off <= nic_->params().inline_threshold_bytes ? resp_off : 0);

  // RDMA-write the response batch into the client's response ring.
  // The post happens *after* the processing time just accounted: the
  // server CPU is on the latency critical path of two-sided operations.
  Connection* conn_ptr = &conn;
  const uint64_t dst_off = slot * conn.response_slot_bytes;
  const uint64_t resp_bytes = resp_off;
  const uint64_t seq = hdr.seq;
  conn.pending_posts++;
  auto deferred_post = [this, conn_ptr, seq, slot, dst_off, resp_bytes] {
    conn_ptr->pending_posts--;
    if (shutdown_ || conn_ptr->qp == nullptr) return;
    (void)conn_ptr->qp->PostWrite(
        seq, conn_ptr->response_staging,
        slot * conn_ptr->response_slot_bytes,
        conn_ptr->client_response_ring, dst_off, resp_bytes);
    // Drain our own send CQ so completions do not pile up.
    rdma::WorkCompletion wc;
    while (conn_ptr->qp->send_cq().Poll(&wc, 1) == 1) {
    }
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(deferred_post)>(),
                "deferred response post must not heap-allocate");
  sim_->After(consumed, std::move(deferred_post));

  conn.next_seq++;
  batches_processed_++;
  return consumed;
}

}  // namespace redy
