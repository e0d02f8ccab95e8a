#ifndef REDY_SIM_SHARDED_H_
#define REDY_SIM_SHARDED_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/cache_line.h"
#include "common/logging.h"
#include "sim/inline_function.h"
#include "sim/simulation.h"

namespace redy::sim {

/// Conservative parallel discrete-event engine (DESIGN.md §14).
///
/// The event space is split into fixed logical partitions — one per
/// rack in the fleet campaign — each owning a private `Simulation`
/// (with PR 4's slab-pooled records, O(1) cancel, and generation-tagged
/// handles intact per partition). Cross-partition interaction happens
/// only through Post(), which appends a callback to the outbox of the
/// (source, destination) pair. Partitions advance in rounds under a
/// conservative lookahead window:
///
///   1. Drain: every partition schedules its inbound outboxes' messages
///      in source-partition order, each outbox in send order, then
///      reports its earliest pending event time.
///   2. Window: with `m` = the global minimum of those times and `L`
///      the lookahead, every partition runs its events up to
///      `U = min(target, m + L)` in parallel.
///
/// Safety: Post() requires every cross-partition message to arrive at
/// least `L` after the sender's clock (the fleet derives L from
/// net::MinCrossRackLatencyNs — a packet physically cannot cross a
/// rack boundary faster than the wire). Any event executed inside the
/// window has time `t >= m`, so any message it sends arrives at
/// `t + d >= m + L >= U`, i.e. never inside the current window and
/// never in the receiver's past: timestamps are exact, no clamping.
///
/// Determinism: the partition layout and the per-partition computation
/// are *independent of the worker count*. `workers` only chooses which
/// real thread runs partition p (WorkerOf(p)); the rounds, the window
/// bounds, the message delivery order (a total order, not arrival
/// order), and each partition's event sequence are identical whether
/// the engine runs on one thread or sixteen. Same-seed runs are
/// byte-identical across worker counts by construction; the regression
/// tests in sim_test.cc / fleet_test.cc byte-compare snapshots to keep
/// it that way.
///
/// Cache-line ownership: every line a worker writes during a phase is
/// that worker's alone; other workers touch only the message payloads
/// it hands them. Partition p's simulator (clock, sequence and event
/// counters, on every event) is written by WorkerOf(p); the line
/// holding p's `in` header is read by every sender and written by
/// nobody while running; outbox (src, dst) is written by WorkerOf(src)
/// in the window phase and by WorkerOf(dst) in the drain phase; worker
/// w's slot is written by w alone. Each of these is aligned to a line
/// of its own (static_asserts below), so a neighbour's hot field never
/// shares it (DESIGN.md §14).
class ShardedEngine {
 public:
  struct Options {
    /// Logical partitions (racks). Fixed for a given experiment; this
    /// is what determinism keys on.
    uint32_t partitions = 1;
    /// Worker threads; clamped to [1, partitions]. Purely a placement
    /// choice — results do not depend on it.
    uint32_t workers = 1;
    /// Conservative lookahead L (ns): the minimum cross-partition
    /// message delay Post() will accept. Must be >= 1.
    SimTime lookahead_ns = 1;
  };

  explicit ShardedEngine(const Options& opts);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  uint32_t partitions() const {
    return static_cast<uint32_t>(parts_.size());
  }
  uint32_t workers() const { return workers_; }
  SimTime lookahead_ns() const { return lookahead_; }
  /// The worker thread that runs partition p: a fixed round-robin
  /// placement, so results cannot depend on it.
  uint32_t WorkerOf(uint32_t p) const { return p % workers_; }

  /// The partition's private simulator. Setup code schedules initial
  /// events here; during RunUntil only events running *on* partition p
  /// may touch it (or any state owned by p).
  Simulation& partition(uint32_t p) { return parts_[p]->sim; }

  /// Schedules `fn` on partition `dst` at absolute time `t`, callable
  /// from an event executing on partition `src`. Same-partition posts
  /// (and any post made while the engine is not running, i.e. from
  /// single-threaded setup code) go straight onto the destination's
  /// queue. Cross-partition posts while running must respect the
  /// lookahead: t >= partition(src).Now() + lookahead_ns (checked).
  template <typename F>
  void Post(uint32_t src, uint32_t dst, SimTime t, F&& fn) {
    REDY_CHECK(src < partitions() && dst < partitions());
    if (src == dst || !running_) {
      parts_[dst]->sim.At(t, std::forward<F>(fn));
      return;
    }
    REDY_CHECK(t >= parts_[src]->sim.Now() + lookahead_);
    Outbox& box = parts_[dst]->in[src];
    box.msgs.push_back(Msg{t, InlineFunction(std::forward<F>(fn))});
    box.sent++;
  }

  /// Runs every partition to exactly `until` (each partition's Now()
  /// equals `until` on return), in conservative rounds. Callable
  /// repeatedly with non-decreasing bounds.
  void RunUntil(SimTime until);

  /// Aggregate counters (read when quiesced, i.e. outside RunUntil).
  uint64_t events_executed() const;
  uint64_t messages_sent() const;
  uint64_t messages_spilled() const { return 0; }  // outboxes never spill
  uint64_t rounds() const { return rounds_; }
  /// Wall nanoseconds worker `w` has spent in each phase of a round,
  /// summed over every RunUntil so far: draining its partitions'
  /// inboxes, running their windows, and waiting in the round barriers.
  /// The last barrier crossing of each RunUntil is not charged (a
  /// helper would otherwise write its slot after RunUntil returned), so
  /// the three sum to at most the wall time of the RunUntil calls.
  uint64_t drain_ns(uint32_t w) const { return slots_[w].drain_ns; }
  uint64_t run_ns(uint32_t w) const { return slots_[w].run_ns; }
  uint64_t barrier_wait_ns(uint32_t w) const { return slots_[w].wait_ns; }

 private:
  /// One cross-partition message.
  struct Msg {
    SimTime time = 0;
    InlineFunction fn;
  };

  /// Messages from one partition to another, in send order. The thread
  /// running src appends (writing the vector's end and `sent`) only in
  /// the window phase; the thread running dst drains and clear()s it
  /// only in the next drain phase, so the round barriers keep the two
  /// apart and no atomics are needed. The vector keeps its capacity, so
  /// a steady pair stops allocating. A line of its own: packed, two
  /// sources' outboxes into one destination would share a line that
  /// both senders write in the same window.
  struct alignas(kCacheLineBytes) Outbox {
    std::vector<Msg> msgs;
    uint64_t sent = 0;  // messages ever sent
  };

  struct Partition {
    /// Written by the owning worker on every event.
    Simulation sim;
    /// Inbound outboxes indexed by source partition (self unused). The
    /// header is only read while running, by every sender's Post, so it
    /// sits on its own line, away from `sim`'s clock and counters. The
    /// alignment also pads the partition to whole lines, so the next
    /// partition's `sim` never shares this one's lines.
    alignas(kCacheLineBytes) std::vector<Outbox> in;
  };
  static_assert(alignof(Outbox) == kCacheLineBytes);
  static_assert(alignof(Partition) == kCacheLineBytes);

  /// Per-worker round state, each on its own cache line: the drain
  /// phase's minimum and the accumulated phase times.
  struct alignas(kCacheLineBytes) WorkerSlot {
    SimTime min = Simulation::kNoEvent;
    uint64_t drain_ns = 0;
    uint64_t run_ns = 0;
    uint64_t wait_ns = 0;
  };

  /// Sense-reversing spin barrier with a serial section: the last
  /// arriver runs `serial()` before releasing the others, so round
  /// reductions happen inside the barrier. Spins briefly, then yields
  /// (the engine must stay live on machines with fewer cores than
  /// workers). The fetch_add / release-store / acquire-load protocol
  /// gives full happens-before both ways across each crossing, which
  /// is what makes the barrier-separated outbox phases TSan-clean.
  class SpinBarrier {
   public:
    explicit SpinBarrier(uint32_t n) : n_(n) {}

    template <typename F>
    void ArriveAndWait(F&& serial) {
      const uint32_t phase = phase_.load(std::memory_order_relaxed);
      if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        serial();
        arrived_.store(0, std::memory_order_relaxed);
        phase_.store(phase + 1, std::memory_order_release);
        return;
      }
      int spins = 0;
      while (phase_.load(std::memory_order_acquire) == phase) {
        if (++spins > 128) std::this_thread::yield();
      }
    }

   private:
    const uint32_t n_;
    alignas(kCacheLineBytes) std::atomic<uint32_t> arrived_{0};
    alignas(kCacheLineBytes) std::atomic<uint32_t> phase_{0};
  };

  void WorkerLoop(uint32_t w);
  void HelperMain(uint32_t w);
  void DrainInbox(Partition& part);
  /// Serial section of the drain barrier: reduces the per-worker
  /// minima and picks the round's window bound.
  void PickWindow();

  SimTime lookahead_;
  uint32_t workers_;
  std::vector<std::unique_ptr<Partition>> parts_;

  SpinBarrier barrier_;
  std::vector<WorkerSlot> slots_;
  /// Round coordination, written only in PickWindow (the barrier's
  /// serial section) and read by workers after the barrier releases.
  SimTime target_ = 0;
  SimTime window_end_ = 0;
  bool last_round_ = false;
  uint64_t rounds_ = 0;
  /// True while RunUntil is executing; Post uses it to route
  /// setup-time scheduling directly. Written by the controlling thread
  /// only, outside the parallel region.
  bool running_ = false;

  // Helper-thread parking (workers > 1).
  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t run_seq_ = 0;
  bool stop_ = false;
  std::vector<std::thread> helpers_;
};

}  // namespace redy::sim

#endif  // REDY_SIM_SHARDED_H_
