#include "rdma/queue_pair.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "rdma/nic.h"
#include "rdma/responder.h"
#include "sim/inline_function.h"
#include "telemetry/telemetry.h"

namespace redy::rdma {

QueuePair::QueuePair(Nic* nic, uint32_t max_depth)
    : nic_(nic), max_depth_(max_depth) {
  // The sequencer window (sequenced-but-undelivered ops) is bounded by
  // the queue depth: an op occupies its outstanding_ slot from post
  // until its delivery event fires, and every undelivered seq still
  // counts there. A power-of-two ring of that size replaces the old
  // std::map node allocation per completion.
  size_t cap = 16;
  while (cap < max_depth_) cap <<= 1;
  ready_.resize(cap);
}

telemetry::SpanTracer* QueuePair::ActiveTracer() const {
  telemetry::Telemetry* tel = nic_->fabric()->telemetry();
  if (tel == nullptr || !tel->tracer().enabled()) return nullptr;
  return &tel->tracer();
}

uint32_t QueuePair::TraceTrack(telemetry::SpanTracer& tracer) {
  if (trace_track_ == 0) {
    char name[48];
    std::snprintf(name, sizeof(name), "qp %llu srv %u",
                  static_cast<unsigned long long>(trace_id_),
                  static_cast<unsigned>(nic_->server()));
    trace_track_ = tracer.NewTrack("rdma", name);
  }
  return trace_track_;
}

Status QueuePair::Connect(QueuePair* peer) {
  if (peer == nullptr || peer == this) {
    return Status::InvalidArgument("bad peer");
  }
  if (peer_ != nullptr || peer->peer_ != nullptr) {
    return Status::FailedPrecondition("QP already connected");
  }
  peer_ = peer;
  peer->peer_ = this;
  return Status::OK();
}

Status QueuePair::CheckPostable() const {
  if (broken_) return Status::Unavailable("QP broken");
  if (peer_ == nullptr) return Status::FailedPrecondition("QP not connected");
  if (outstanding_ >= max_depth_) {
    return Status::ResourceExhausted("QP at queue depth");
  }
  return Status::OK();
}

sim::SimTime QueuePair::IssueSlot(sim::SimTime earliest) {
  const sim::SimTime slot = std::max(earliest, next_issue_);
  next_issue_ = slot + nic_->params().wqe_issue_gap_ns;
  return slot;
}

void QueuePair::Complete(uint64_t seq, WorkCompletion wc, sim::SimTime t) {
  REDY_CHECK(seq - next_deliver_seq_ < ready_.size());
  ReadySlot& slot = ready_[seq & (ready_.size() - 1)];
  REDY_CHECK(!slot.used);
  slot.wc = wc;
  slot.t = t;
  slot.used = true;
  DeliverReady();
}

void QueuePair::DeliverReady() {
  // Release completions strictly in post order. A completion whose
  // simulated finish time precedes an earlier op's is held back and
  // delivered at the earlier op's time, exactly like an RC QP.
  while (true) {
    ReadySlot& slot = ready_[next_deliver_seq_ & (ready_.size() - 1)];
    if (!slot.used) return;
    WorkCompletion wc = slot.wc;
    sim::SimTime t = slot.t;
    slot.used = false;
    next_deliver_seq_++;
    t = std::max(t, last_completion_);
    // Injected gray failure: a stalled NIC (either endpoint) holds its
    // completions until the stall window closes.
    t = nic_->ReleaseTime(t);
    if (peer_ != nullptr) t = peer_->nic_->ReleaseTime(t);
    last_completion_ = t;
    nic_->CountWqeCompleted(wc.status == StatusCode::kOk);
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      // Recorded now (deterministically), stamped with the delivery
      // time the sequencer just fixed.
      tr->Instant(TraceTrack(*tr), "completion", "wqe", t,
                  {"wr_id", wc.wr_id},
                  {"status", static_cast<uint64_t>(wc.status)});
    }
    auto deliver = [this, wc, t]() mutable {
      wc.completed_at = t;
      send_cq_.Push(wc);
      REDY_CHECK(outstanding_ > 0);
      outstanding_--;
    };
    // Completion delivery runs once per WQE: it must never fall back to
    // a heap-allocated callback.
    static_assert(sim::InlineFunction::fits_inline<decltype(deliver)>(),
                  "QP completion-delivery lambda must stay inline");
    nic_->sim()->At(t, std::move(deliver));
  }
}

uint64_t QueuePair::PostCostNs(uint64_t inline_bytes) const {
  // Doorbell plus copying an inlined payload into the WQE (~4 B/ns).
  return nic_->params().nic_post_ns + inline_bytes / 4;
}

Status QueuePair::PostWrite(uint64_t wr_id, const MemoryRegion* mr,
                            uint64_t local_offset, RemoteKey key,
                            uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckPostable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local write source out of bounds");
  }
  outstanding_++;
  const uint64_t seq = next_post_seq_++;

  const net::FabricParams& p = nic_->params();
  sim::Simulation* sim = nic_->sim();
  const bool inlined = len <= p.inline_threshold_bytes;

  // Fault injection: a doomed WQE travels normally but completes with a
  // transport error; degraded links add one-way latency.
  FaultHooks* hooks = nic_->fabric()->fault_hooks();
  const net::ServerId src = nic_->server();
  const net::ServerId dst = peer_->nic_->server();
  const bool doomed = hooks != nullptr && hooks->WqeError(src, dst);
  const uint64_t extra_ns =
      hooks == nullptr ? 0 : hooks->ExtraLatencyNs(src, dst);

  // The per-QP pipeline is computed at post time so stages stay FIFO:
  // issue -> (PCIe fetch) -> wire serialization -> propagation -> DMA.
  const sim::SimTime issue = IssueSlot(sim->Now());
  const sim::SimTime fetch_done = issue + (inlined ? 0 : p.pcie_fetch_ns);
  const sim::SimTime wire_end = nic_->tx_link().Reserve(fetch_done, len);
  const sim::SimTime landed =
      wire_end + nic_->fabric()->OneWayNs(src, dst) + p.nic_remote_dma_ns +
      extra_ns;

  // WQE lifecycle trace: the whole pipeline is known at post time, so
  // the span and its stage children are recorded here with their
  // precomputed timestamps (doorbell -> DMA fetch -> wire -> landed).
  nic_->CountWqePosted();
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    const uint32_t tk = TraceTrack(*tr);
    const uint64_t span = tr->NextId();
    tr->Instant(tk, "doorbell", "wqe", sim->Now(), {"wr_id", wr_id});
    tr->AsyncBegin(tk, "write", "wqe", span, issue, {"wr_id", wr_id},
                   {"len", len});
    if (!inlined) {
      tr->AsyncBegin(tk, "dma_fetch", "wqe", span, issue);
      tr->AsyncEnd(tk, "dma_fetch", "wqe", span, fetch_done);
    }
    tr->AsyncBegin(tk, "wire", "wqe", span, fetch_done);
    tr->AsyncEnd(tk, "wire", "wqe", span, wire_end);
    tr->AsyncEnd(tk, "write", "wqe", span, landed);
  }

  // Inline payloads snapshot at post time (real NICs copy them into the
  // WQE); non-inline payloads are fetched over PCIe at fetch_done. The
  // buffer comes from the per-QP pool and is released when the landing
  // event consumes it (the fetch event precedes the landing event, so a
  // raw pooled pointer needs no shared ownership).
  std::vector<uint8_t>* payload = AcquirePayload();
  if (inlined) {
    payload->assign(mr->data() + local_offset,
                    mr->data() + local_offset + len);
  } else {
    const uint8_t* fetch_src = mr->data() + local_offset;
    auto fetch = [payload, fetch_src, len] {
      payload->assign(fetch_src, fetch_src + len);
    };
    static_assert(sim::InlineFunction::fits_inline<decltype(fetch)>(),
                  "PCIe-fetch lambda must stay inline");
    sim->At(fetch_done, std::move(fetch));
  }

  auto land = [this, seq, wr_id, key, doomed, remote_offset, len, payload]() {
    WorkCompletion wc{wr_id, Opcode::kWrite, StatusCode::kOk,
                      static_cast<uint32_t>(len), 0};
    if (doomed || broken_ || peer_ == nullptr || peer_->nic_->failed()) {
      wc.status = StatusCode::kUnavailable;
    } else {
      MemoryRegion* rmr = peer_->nic_->Resolve(key.rkey);
      wc.status = rmr == nullptr
                      ? StatusCode::kProtectionError
                      : responder::Write(*rmr, key.epoch, remote_offset,
                                         payload->data(), len);
      if (wc.status == StatusCode::kOk) rmr->NotifyRemoteWrite();
      if (wc.status == StatusCode::kProtectionError) {
        peer_->nic_->CountProtectionError();
      }
    }
    ReleasePayload(payload);
    const sim::SimTime back =
        nic_->sim()->Now() +
        nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
    Complete(seq, wc, back);
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(land)>(),
                "write-landing lambda must stay inline");
  sim->At(landed, std::move(land));
  return Status::OK();
}

Status QueuePair::PostRead(uint64_t wr_id, MemoryRegion* mr,
                           uint64_t local_offset, RemoteKey key,
                           uint64_t remote_offset, uint64_t len) {
  REDY_RETURN_IF_ERROR(CheckPostable());
  if (!mr->InBounds(local_offset, len)) {
    return Status::OutOfRange("local read destination out of bounds");
  }
  outstanding_++;
  const uint64_t seq = next_post_seq_++;

  sim::Simulation* sim = nic_->sim();

  FaultHooks* hooks = nic_->fabric()->fault_hooks();
  const net::ServerId src = nic_->server();
  const net::ServerId dst = peer_->nic_->server();
  const bool doomed = hooks != nullptr && hooks->WqeError(src, dst);
  const uint64_t extra_ns =
      hooks == nullptr ? 0 : hooks->ExtraLatencyNs(src, dst);

  const sim::SimTime issue = IssueSlot(sim->Now());
  // Read request is header-only on the wire.
  const sim::SimTime req_wire_end = nic_->tx_link().Reserve(issue, 0);
  const sim::SimTime req_arrive =
      req_wire_end + nic_->fabric()->OneWayNs(src, dst) + extra_ns;

  // Request-side WQE trace; the response stages are recorded when the
  // request reaches the responder (they depend on its link state).
  nic_->CountWqePosted();
  uint64_t span = 0;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    const uint32_t tk = TraceTrack(*tr);
    span = tr->NextId();
    tr->Instant(tk, "doorbell", "wqe", sim->Now(), {"wr_id", wr_id});
    tr->AsyncBegin(tk, "read", "wqe", span, issue, {"wr_id", wr_id},
                   {"len", len});
    tr->AsyncBegin(tk, "req_wire", "wqe", span, issue);
    tr->AsyncEnd(tk, "req_wire", "wqe", span, req_wire_end);
  }

  // The responder-arrival stage needs more context than the scheduler's
  // inline budget holds, so it travels as a pooled record and the event
  // captures three words.
  ReadOp* op = read_op_pool_.Acquire();
  *op = ReadOp{wr_id, mr, local_offset, key, remote_offset, len, span, doomed};
  auto arrive = [this, seq, op]() {
    const auto [wr_id, mr, local_offset, key, remote_offset, len, span,
                doomed] = *op;
    read_op_pool_.Release(op);

    const net::FabricParams& p = nic_->params();
    sim::Simulation* sim = nic_->sim();
    WorkCompletion wc{wr_id, Opcode::kRead, StatusCode::kOk,
                      static_cast<uint32_t>(len), 0};
    const uint64_t one_way =
        nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
    // Responder NIC fetches the data over PCIe, then serializes the
    // response on its own transmit link.
    std::vector<uint8_t>* payload = AcquirePayload();
    payload->resize(len);
    const MemoryRegion* rmr = nullptr;
    if (doomed || broken_ || peer_ == nullptr || peer_->nic_->failed()) {
      wc.status = StatusCode::kUnavailable;
    } else if ((rmr = peer_->nic_->Resolve(key.rkey)) == nullptr) {
      wc.status = StatusCode::kProtectionError;
      peer_->nic_->CountProtectionError();
    } else {
      wc.status = responder::Read(*rmr, remote_offset, len, payload->data());
    }
    if (wc.status != StatusCode::kOk) {
      ReleasePayload(payload);
      if (span != 0) {
        if (telemetry::SpanTracer* tr = ActiveTracer()) {
          tr->AsyncEnd(TraceTrack(*tr), "read", "wqe", span, sim->Now());
        }
      }
      Complete(seq, wc, sim->Now() + one_way);
      return;
    }
    FaultHooks* hooks = nic_->fabric()->fault_hooks();
    const uint64_t resp_extra =
        hooks == nullptr
            ? 0
            : hooks->ExtraLatencyNs(peer_->nic_->server(), nic_->server());
    const sim::SimTime fetch_done = sim->Now() + p.pcie_fetch_ns;
    const sim::SimTime resp_wire_end =
        peer_->nic_->tx_link().Reserve(fetch_done, len);
    const sim::SimTime landed =
        resp_wire_end + one_way + p.nic_remote_dma_ns + resp_extra;
    if (span != 0) {
      if (telemetry::SpanTracer* tr = ActiveTracer()) {
        const uint32_t tk = TraceTrack(*tr);
        tr->AsyncBegin(tk, "resp_fetch", "wqe", span, sim->Now());
        tr->AsyncEnd(tk, "resp_fetch", "wqe", span, fetch_done);
        tr->AsyncBegin(tk, "resp_wire", "wqe", span, fetch_done);
        tr->AsyncEnd(tk, "resp_wire", "wqe", span, resp_wire_end);
        tr->AsyncEnd(tk, "read", "wqe", span, landed);
      }
    }
    auto land = [this, seq, wr_id, mr, local_offset, len, payload]() {
      WorkCompletion wc{wr_id, Opcode::kRead, StatusCode::kOk,
                        static_cast<uint32_t>(len), 0};
      if (broken_) {
        wc.status = StatusCode::kUnavailable;
      } else {
        std::memcpy(mr->data() + local_offset, payload->data(), len);
      }
      ReleasePayload(payload);
      Complete(seq, wc, nic_->sim()->Now());
    };
    static_assert(sim::InlineFunction::fits_inline<decltype(land)>(),
                  "read-landing lambda must stay inline");
    sim->At(landed, std::move(land));
  };
  static_assert(sim::InlineFunction::fits_inline<decltype(arrive)>(),
                "read responder-arrival lambda must stay inline");
  sim->At(req_arrive, std::move(arrive));
  return Status::OK();
}

Status QueuePair::PostChain(uint64_t wr_id, MemoryRegion* mr,
                            const ChainHop* hops, uint32_t num_hops) {
  REDY_RETURN_IF_ERROR(CheckPostable());
  REDY_RETURN_IF_ERROR(responder::ValidateChain(*mr, hops, num_hops));
  outstanding_++;
  const uint64_t seq = next_post_seq_++;

  sim::Simulation* sim = nic_->sim();

  FaultHooks* hooks = nic_->fabric()->fault_hooks();
  const net::ServerId src = nic_->server();
  const net::ServerId dst = peer_->nic_->server();
  const bool doomed = hooks != nullptr && hooks->WqeError(src, dst);
  const uint64_t extra_ns =
      hooks == nullptr ? 0 : hooks->ExtraLatencyNs(src, dst);

  // One doorbell posts the whole chain: the header-only request carries
  // every hop descriptor, then the responder NIC runs the links locally.
  // Client-side there is exactly one pipeline pass.
  const sim::SimTime issue = IssueSlot(sim->Now());
  const sim::SimTime req_wire_end = nic_->tx_link().Reserve(issue, 0);
  const sim::SimTime req_arrive =
      req_wire_end + nic_->fabric()->OneWayNs(src, dst) + extra_ns;

  nic_->CountWqePosted();
  nic_->CountChainPosted();
  uint64_t span = 0;
  if (telemetry::SpanTracer* tr = ActiveTracer()) {
    const uint32_t tk = TraceTrack(*tr);
    span = tr->NextId();
    tr->Instant(tk, "doorbell", "wqe", sim->Now(), {"wr_id", wr_id});
    tr->AsyncBegin(tk, "chain", "wqe", span, issue, {"wr_id", wr_id},
                   {"hops", num_hops});
    tr->AsyncBegin(tk, "req_wire", "wqe", span, issue);
    tr->AsyncEnd(tk, "req_wire", "wqe", span, req_wire_end);
  }

  ChainOp* op = chain_op_pool_.Acquire();
  *op = ChainOp{wr_id, mr, {}, num_hops, 0, 0, span, doomed, nullptr};
  std::copy(hops, hops + num_hops, op->hops);

  auto arrive = [this, seq, op]() { ChainStep(seq, op); };
  static_assert(sim::InlineFunction::fits_inline<decltype(arrive)>(),
                "chain responder-arrival lambda must stay inline");
  sim->At(req_arrive, std::move(arrive));
  return Status::OK();
}

void QueuePair::ReleaseChainOp(ChainOp* op) {
  if (op->rpay != nullptr) ReleasePayload(op->rpay);
  chain_op_pool_.Release(op);
}

void QueuePair::ChainAbort(uint64_t seq, ChainOp* op, StatusCode code) {
  // A poisoned chain delivers exactly ONE error completion for the
  // whole doorbell: the remaining hops never execute and no payload
  // lands locally (byte_len 0) — zero bytes move past the fence.
  nic_->CountChainAborted();
  sim::Simulation* sim = nic_->sim();
  if (op->span != 0) {
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      tr->AsyncEnd(TraceTrack(*tr), "chain", "wqe", op->span, sim->Now());
    }
  }
  WorkCompletion wc{op->wr_id, Opcode::kChain, code, 0, 0};
  const sim::SimTime back =
      sim->Now() +
      nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
  ReleaseChainOp(op);
  Complete(seq, wc, back);
}

void QueuePair::ChainStep(uint64_t seq, ChainOp* op) {
  const net::FabricParams& p = nic_->params();
  sim::Simulation* sim = nic_->sim();
  FaultHooks* hooks = nic_->fabric()->fault_hooks();

  // Each WAIT-gate re-consults the fault hooks: a link flap that opens
  // after hop N kills hop N+1 mid-chain (hop 0 is covered by the
  // post-time `doomed` roll, exactly like a plain READ).
  if (op->doomed || broken_ || peer_ == nullptr || peer_->nic_->failed() ||
      (op->hop > 0 && hooks != nullptr &&
       hooks->WqeError(nic_->server(), peer_->nic_->server()))) {
    ChainAbort(seq, op, StatusCode::kUnavailable);
    return;
  }

  const ChainHop& h = op->hops[op->hop];
  if (op->rpay == nullptr) {
    op->rpay = AcquirePayload();
    op->rpay->clear();
  }
  const MemoryRegion* rmr = peer_->nic_->Resolve(h.key.rkey);
  const StatusCode code =
      rmr == nullptr ? StatusCode::kProtectionError
                     : responder::ChainHop(*rmr, h, &op->prev_word, op->rpay);
  if (code != StatusCode::kOk) {
    if (code == StatusCode::kProtectionError) {
      peer_->nic_->CountProtectionError();
    }
    ChainAbort(seq, op, code);
    return;
  }

  nic_->CountChainHop();
  if (op->span != 0) {
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      const uint32_t tk = TraceTrack(*tr);
      tr->AsyncBegin(tk, "hop_fetch", "wqe", op->span, sim->Now(),
                     {"hop", op->hop});
      tr->AsyncEnd(tk, "hop_fetch", "wqe", op->span,
                   sim->Now() + p.pcie_fetch_ns);
    }
  }

  op->hop++;
  if (op->hop < op->num_hops) {
    // Next link fires once this hop's PCIe fetch retires and the NIC's
    // WAIT-on-CQ gate sequences the dependent WQE.
    const sim::SimTime next =
        sim->Now() + p.pcie_fetch_ns + p.nic_chain_step_ns;
    auto step = [this, seq, op]() { ChainStep(seq, op); };
    static_assert(sim::InlineFunction::fits_inline<decltype(step)>(),
                  "chain-step lambda must stay inline");
    sim->At(next, std::move(step));
    return;
  }

  // Last hop: the responder finishes its fetch, then serializes ONE
  // response carrying every hop's payload back to the client.
  const uint64_t one_way =
      nic_->fabric()->OneWayNs(nic_->server(), peer_->nic_->server());
  const uint64_t resp_extra =
      hooks == nullptr
          ? 0
          : hooks->ExtraLatencyNs(peer_->nic_->server(), nic_->server());
  const sim::SimTime fetch_done = sim->Now() + p.pcie_fetch_ns;
  const sim::SimTime resp_wire_end =
      peer_->nic_->tx_link().Reserve(fetch_done, op->rpay->size());
  const sim::SimTime landed =
      resp_wire_end + one_way + p.nic_remote_dma_ns + resp_extra;
  if (op->span != 0) {
    if (telemetry::SpanTracer* tr = ActiveTracer()) {
      const uint32_t tk = TraceTrack(*tr);
      tr->AsyncBegin(tk, "resp_wire", "wqe", op->span, fetch_done);
      tr->AsyncEnd(tk, "resp_wire", "wqe", op->span, resp_wire_end);
      tr->AsyncEnd(tk, "chain", "wqe", op->span, landed);
    }
  }
  auto land = [this, seq, op]() { ChainLand(seq, op); };
  static_assert(sim::InlineFunction::fits_inline<decltype(land)>(),
                "chain-landing lambda must stay inline");
  sim->At(landed, std::move(land));
}

void QueuePair::ChainLand(uint64_t seq, ChainOp* op) {
  WorkCompletion wc{op->wr_id, Opcode::kChain, StatusCode::kOk,
                    static_cast<uint32_t>(op->rpay->size()), 0};
  if (broken_) {
    wc.status = StatusCode::kUnavailable;
  } else {
    responder::ScatterChainReads(op->hops, op->num_hops, op->rpay->data(),
                                 *op->mr);
  }
  const sim::SimTime now = nic_->sim()->Now();
  ReleaseChainOp(op);
  Complete(seq, wc, now);
}

void QueuePair::Break() {
  if (broken_) return;
  broken_ = true;
  // In-flight operations observe broken_ when their events fire and
  // complete with kUnavailable, so outstanding_ drains naturally.
  //
  // Ring the send-CQ doorbell (without enqueueing anything): a poller
  // parked while waiting only on a remote response has no pending send
  // event to wake it, and this is the simulator's stand-in for the
  // async error event a real NIC raises on the QP error transition.
  send_cq_.Notify();
}

}  // namespace redy::rdma
