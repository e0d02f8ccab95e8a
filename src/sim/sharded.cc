#include "sim/sharded.h"

#include <chrono>

namespace redy::sim {

namespace {

using Clock = std::chrono::steady_clock;

/// Adds the time since `since` to `*acc` and returns the current time,
/// so back-to-back phases share one clock read at each boundary.
Clock::time_point Charge(uint64_t* acc, Clock::time_point since) {
  const Clock::time_point now = Clock::now();
  *acc += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - since)
          .count());
  return now;
}

}  // namespace

ShardedEngine::ShardedEngine(const Options& opts)
    : lookahead_(opts.lookahead_ns),
      workers_(std::clamp<uint32_t>(opts.workers, 1,
                                    std::max<uint32_t>(1, opts.partitions))),
      barrier_(workers_),
      slots_(workers_) {
  REDY_CHECK(opts.partitions >= 1);
  REDY_CHECK(opts.lookahead_ns >= 1);
  parts_.reserve(opts.partitions);
  for (uint32_t p = 0; p < opts.partitions; p++) {
    parts_.push_back(std::make_unique<Partition>());
    parts_.back()->in.resize(opts.partitions);
  }
  for (uint32_t w = 1; w < workers_; w++) {
    helpers_.emplace_back([this, w] { HelperMain(w); });
  }
}

ShardedEngine::~ShardedEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : helpers_) t.join();
}

void ShardedEngine::HelperMain(uint32_t w) {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || run_seq_ > seen; });
      if (stop_) return;
      seen = run_seq_;
    }
    WorkerLoop(w);
  }
}

void ShardedEngine::DrainInbox(Partition& part) {
  // Deliveries are a total order, not an arrival order: source partition,
  // then send order. Simulation fires same-time events in scheduling
  // order, so same-time messages fire in (source, send index) order
  // whichever thread got where first; different times are ordered by
  // the heap.
  for (Outbox& box : part.in) {
    for (Msg& m : box.msgs) {
      // The window invariant guarantees m.time >= the partition's clock
      // (see the class comment's proof sketch), so At() never clamps.
      REDY_CHECK(m.time >= part.sim.Now());
      part.sim.At(m.time, std::move(m.fn));
    }
    box.msgs.clear();
  }
}

void ShardedEngine::PickWindow() {
  SimTime m = Simulation::kNoEvent;
  for (const WorkerSlot& slot : slots_) m = std::min(m, slot.min);
  rounds_++;
  if (m == Simulation::kNoEvent || m > target_) {
    // Nothing left at or before the target: one final advance pins
    // every clock to the bound. Events running at exactly target_ were
    // handled by a previous (non-final) round, so no sends can land in
    // this one.
    window_end_ = target_;
    last_round_ = true;
    return;
  }
  window_end_ =
      (target_ - m > lookahead_) ? m + lookahead_ : target_;
  last_round_ = false;
}

void ShardedEngine::WorkerLoop(uint32_t w) {
  const uint32_t n = partitions();
  WorkerSlot& slot = slots_[w];
  Clock::time_point t = Clock::now();
  // Both phases visit p = w, w + workers_, ...: the partitions with
  // WorkerOf(p) == w.
  for (;;) {
    // Drain phase: ingest cross-partition messages, then report the
    // earliest pending event across this worker's partitions.
    SimTime local_min = Simulation::kNoEvent;
    for (uint32_t p = w; p < n; p += workers_) {
      Partition& part = *parts_[p];
      DrainInbox(part);
      local_min = std::min(local_min, part.sim.NextEventTime());
    }
    slot.min = local_min;
    t = Charge(&slot.drain_ns, t);
    barrier_.ArriveAndWait([this] { PickWindow(); });
    t = Charge(&slot.wait_ns, t);

    // Window phase: run the safe window in parallel.
    const SimTime u = window_end_;
    const bool done = last_round_;
    for (uint32_t p = w; p < n; p += workers_) {
      parts_[p]->sim.RunUntil(u);
    }
    t = Charge(&slot.run_ns, t);
    // The trailing barrier separates this round's producers from the
    // next round's drains (no outbox is ever touched from both ends
    // concurrently) and, on the last round, keeps RunUntil from
    // returning while a helper still runs. So the last round's wait
    // goes uncharged: after that crossing a helper must not write.
    barrier_.ArriveAndWait([] {});
    if (done) return;
    t = Charge(&slot.wait_ns, t);
  }
}

void ShardedEngine::RunUntil(SimTime until) {
  REDY_CHECK(until >= parts_[0]->sim.Now());
  target_ = until;
  running_ = true;
  if (workers_ > 1) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      run_seq_++;
    }
    cv_.notify_all();
  }
  WorkerLoop(0);
  running_ = false;
}

uint64_t ShardedEngine::events_executed() const {
  uint64_t total = 0;
  for (const auto& p : parts_) total += p->sim.events_executed();
  return total;
}

uint64_t ShardedEngine::messages_sent() const {
  uint64_t total = 0;
  for (const auto& p : parts_) {
    for (const Outbox& box : p->in) total += box.sent;
  }
  return total;
}

}  // namespace redy::sim
