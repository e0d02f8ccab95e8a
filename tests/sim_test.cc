#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/poller.h"
#include "sim/sharded.h"
#include "sim/simulation.h"

namespace redy {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  sim::Simulation sim;
  std::vector<int> order;
  sim.At(300, [&] { order.push_back(3); });
  sim.At(100, [&] { order.push_back(1); });
  sim.At(200, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 300u);
}

TEST(SimulationTest, SameTimeEventsAreFifo) {
  sim::Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; i++) {
    sim.At(50, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, NestedSchedulingWorks) {
  sim::Simulation sim;
  int fired = 0;
  sim.At(10, [&] {
    fired++;
    sim.After(5, [&] {
      fired++;
      EXPECT_EQ(sim.Now(), 15u);
    });
  });
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, PastEventsClampToNow) {
  sim::Simulation sim;
  sim.At(100, [] {});
  sim.Run();
  bool ran = false;
  sim.At(50, [&] {
    ran = true;
  });
  sim.Run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.Now(), 100u);
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  sim::Simulation sim;
  int fired = 0;
  sim.At(10, [&] { fired++; });
  sim.At(20, [&] { fired++; });
  sim.At(30, [&] { fired++; });
  sim.RunUntil(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 20u);
  sim.RunUntil(25);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 25u);
  sim.Run();
  EXPECT_EQ(fired, 3);
}

TEST(SimulationTest, CancelPreventsExecution) {
  sim::Simulation sim;
  bool ran = false;
  uint64_t id = sim.At(10, [&] { ran = true; });
  bool other = false;
  sim.At(20, [&] { other = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(other);
}

TEST(SimulationTest, CancelledHeadDoesNotLetLaterEventsJumpRunUntil) {
  sim::Simulation sim;
  bool late_ran = false;
  uint64_t id = sim.At(10, [] {});
  sim.At(100, [&] { late_ran = true; });
  sim.Cancel(id);
  sim.RunUntil(50);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.Now(), 50u);
}

TEST(SimulationTest, DoubleCancelReturnsFalseAndKeepsAccounting) {
  sim::Simulation sim;
  bool ran = false;
  uint64_t id = sim.At(10, [&] { ran = true; });
  sim.At(20, [] {});
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
  // Historically a second Cancel of the same handle inflated the
  // cancelled-event count and broke empty(); it must be a no-op.
  EXPECT_FALSE(sim.Cancel(id));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.empty());
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_TRUE(sim.empty());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationTest, CancelAfterFireReturnsFalse) {
  sim::Simulation sim;
  int fired = 0;
  uint64_t id = sim.At(10, [&] { fired++; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.Cancel(id));
  // The stale cancel must not disturb later scheduling.
  sim.At(20, [&] { fired++; });
  EXPECT_FALSE(sim.empty());
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, CancelFromInsideCallback) {
  sim::Simulation sim;
  bool victim_ran = false;
  uint64_t victim = sim.At(20, [&] { victim_ran = true; });
  bool cancelled = false;
  sim.At(10, [&] { cancelled = sim.Cancel(victim); });
  sim.Run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(sim.empty());
}

TEST(SimulationTest, StaleHandleOfReusedSlotIsRejected) {
  sim::Simulation sim;
  // Cancel an event, then schedule another: whether or not the pool
  // has recycled the cancelled slot yet, the old handle must stay dead
  // (disengaged callback until the lazy discard, generation tag after).
  uint64_t old_id = sim.At(10, [] {});
  ASSERT_TRUE(sim.Cancel(old_id));
  bool ran = false;
  uint64_t new_id = sim.At(20, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  // Cancelling via the stale handle must not kill the new event.
  EXPECT_FALSE(sim.Cancel(old_id));
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(SimulationTest, CallbackCanReuseItsOwnSlot) {
  sim::Simulation sim;
  // The running event's slot returns to the pool only after its
  // callback finishes (the callable runs in place), so a callback
  // that schedules gets a different slot; ordering must hold and the
  // original slot must recycle cleanly afterwards.
  std::vector<int> order;
  sim.At(10, [&] {
    order.push_back(1);
    sim.After(5, [&] { order.push_back(2); });
  });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(SimulationTest, RandomizedScheduleCancelMatchesReferenceModel) {
  // Differential test of the pooled 4-ary heap against a trivially
  // correct reference: random interleaving of schedules, cancels
  // (fresh, stale, double) and steps must fire the same events in the
  // same (time, seq) order.
  sim::Simulation sim;
  std::mt19937 rng(12345);
  std::multimap<std::pair<uint64_t, uint64_t>, int> reference;
  std::vector<std::pair<uint64_t, uint64_t>> live;  // (handle, key-seq)
  std::vector<uint64_t> dead_handles;
  std::vector<int> fired;
  std::vector<int> expected;
  uint64_t seq = 0;
  int next_tag = 0;

  for (int step = 0; step < 20'000; step++) {
    const uint32_t roll = rng() % 100;
    if (roll < 55) {
      const uint64_t t = sim.Now() + rng() % 500;
      const int tag = next_tag++;
      const uint64_t s = seq++;
      uint64_t h = sim.At(t, [&fired, tag] { fired.push_back(tag); });
      reference.emplace(std::make_pair(std::max(t, sim.Now()), s), tag);
      live.emplace_back(h, s);
    } else if (roll < 70 && !live.empty()) {
      const size_t i = rng() % live.size();
      auto [h, s] = live[i];
      EXPECT_TRUE(sim.Cancel(h));
      for (auto it = reference.begin(); it != reference.end(); ++it) {
        if (it->first.second == s) {
          reference.erase(it);
          break;
        }
      }
      live.erase(live.begin() + i);
      dead_handles.push_back(h);
    } else if (roll < 80 && !dead_handles.empty()) {
      EXPECT_FALSE(sim.Cancel(dead_handles[rng() % dead_handles.size()]));
    } else {
      if (sim.Step()) {
        ASSERT_FALSE(reference.empty());
        auto it = reference.begin();
        expected.push_back(it->second);
        const uint64_t s = it->first.second;
        reference.erase(it);
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [s](auto& p) { return p.second == s; }),
                   live.end());
      }
    }
    ASSERT_EQ(sim.pending(), reference.size());
  }
  sim.Run();
  for (const auto& [key, tag] : reference) expected.push_back(tag);
  EXPECT_EQ(fired, expected);
}

TEST(InlineFunctionTest, InvokesInlineCallable) {
  int hits = 0;
  auto small = [&hits] { hits++; };
  static_assert(sim::InlineFunction::fits_inline<decltype(small)>());
  sim::InlineFunction f(small);
  EXPECT_TRUE(static_cast<bool>(f));
  f();
  EXPECT_EQ(hits, 1);
}

TEST(InlineFunctionTest, LargeCaptureFallsBackToHeap) {
  std::array<uint64_t, 32> payload{};
  payload[0] = 7;
  payload[31] = 9;
  auto big = [payload] { EXPECT_EQ(payload[0] + payload[31], 16u); };
  static_assert(!sim::InlineFunction::fits_inline<decltype(big)>());
  sim::InlineFunction f(std::move(big));
  f();
}

TEST(InlineFunctionTest, MoveTransfersStateAndDestroysOnce) {
  struct Probe {
    std::shared_ptr<int> alive = std::make_shared<int>(0);
  };
  Probe probe;
  std::weak_ptr<int> watch = probe.alive;
  {
    sim::InlineFunction a([probe = std::move(probe)] {});
    sim::InlineFunction b(std::move(a));
    EXPECT_FALSE(static_cast<bool>(a));
    EXPECT_TRUE(static_cast<bool>(b));
    EXPECT_FALSE(watch.expired());
    sim::InlineFunction c = std::move(b);
    EXPECT_TRUE(static_cast<bool>(c));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineFunctionTest, ResetReleasesCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  sim::InlineFunction f([token = std::move(token)] {});
  EXPECT_FALSE(watch.expired());
  f.Reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(PollerTest, PollsAtInterval) {
  sim::Simulation sim;
  int polls = 0;
  sim::Poller poller(&sim, 100, [&]() -> uint64_t {
    polls++;
    return 0;
  });
  poller.Start();
  sim.RunUntil(1000);
  poller.Stop();
  // t=0,100,...,1000 inclusive.
  EXPECT_EQ(polls, 11);
}

TEST(PollerTest, BusyIterationsDelayNextPoll) {
  sim::Simulation sim;
  int polls = 0;
  sim::Poller poller(&sim, 100, [&]() -> uint64_t {
    polls++;
    return 500;  // each iteration consumes 500ns
  });
  poller.Start();
  sim.RunUntil(2000);
  poller.Stop();
  EXPECT_EQ(polls, 5);  // t=0,500,1000,1500,2000
}

TEST(PollerTest, StopFromInsideBody) {
  sim::Simulation sim;
  int polls = 0;
  sim::Poller poller(&sim, 10, [&]() -> uint64_t {
    polls++;
    if (polls == 3) poller.Stop();
    return 0;
  });
  poller.Start();
  sim.Run();
  EXPECT_EQ(polls, 3);
}

TEST(PollerTest, RestartAfterStopResumesPolling) {
  sim::Simulation sim;
  std::vector<sim::SimTime> polls;
  sim::Poller poller(&sim, 100, [&]() -> uint64_t {
    polls.push_back(sim.Now());
    return 0;
  });
  poller.Start();
  sim.RunUntil(250);
  poller.Stop();
  sim.RunUntil(1000);
  EXPECT_EQ(polls, (std::vector<sim::SimTime>{0, 100, 200}));
  poller.Start();
  sim.RunUntil(1250);
  poller.Stop();
  EXPECT_EQ(polls,
            (std::vector<sim::SimTime>{0, 100, 200, 1000, 1100, 1200}));
}

TEST(PollerTest, ParkInsideBodyAndWakeRealignsToTickPhase) {
  sim::Simulation sim;
  std::vector<sim::SimTime> polls;
  bool park_next = false;
  sim::Poller poller(&sim, 100, [&]() -> uint64_t {
    polls.push_back(sim.Now());
    if (park_next) {
      park_next = false;
      poller.Park();
    }
    return 0;
  });
  poller.Start();
  sim.At(150, [&] { park_next = true; });  // body at t=200 parks
  // Wake off-phase: the next poll must land on the original 100ns
  // cadence (t=300), not at the wake time.
  sim.At(250, [&] { poller.Wake(); });
  sim.RunUntil(400);
  poller.Stop();
  EXPECT_EQ(polls, (std::vector<sim::SimTime>{0, 100, 200, 300, 400}));
}

TEST(PollerTest, ParkOutsideBodyCancelsPendingAndWakeCatchesUp) {
  sim::Simulation sim;
  std::vector<sim::SimTime> polls;
  sim::Poller poller(&sim, 100, [&]() -> uint64_t {
    polls.push_back(sim.Now());
    return 0;
  });
  poller.Start();
  // Park between ticks: the pending t=300 poll is cancelled. Waking at
  // t=650 realigns to the first original tick >= 650, i.e. t=700.
  sim.At(250, [&] { poller.Park(); });
  sim.At(650, [&] { poller.Wake(); });
  sim.RunUntil(900);
  poller.Stop();
  EXPECT_EQ(polls,
            (std::vector<sim::SimTime>{0, 100, 200, 700, 800, 900}));
  EXPECT_TRUE(sim.empty());  // a parked poller leaves no event behind
}

TEST(PollerTest, WakeInsideBodyAfterParkKeepsSingleSchedule) {
  // A body that parks and is synchronously woken (e.g. its own work
  // source fires re-entrantly) must not double-schedule the next poll.
  sim::Simulation sim;
  int polls = 0;
  sim::Poller poller(&sim, 100, [&]() -> uint64_t {
    polls++;
    poller.Park();
    poller.Wake();
    return 0;
  });
  poller.Start();
  sim.RunUntil(500);
  poller.Stop();
  EXPECT_EQ(polls, 6);  // t=0..500: the park/wake pair is a no-op
  EXPECT_TRUE(sim.empty());
}

TEST(PollerTest, ParkWakeRunsAreDeterministic) {
  // Two same-seed runs of a park/wake-heavy scenario must execute the
  // same events at the same times.
  auto run = [](std::vector<sim::SimTime>* polls) -> uint64_t {
    sim::Simulation sim;
    std::mt19937 rng(99);
    uint32_t idle = 0;
    sim::Poller poller(&sim, 50, [&]() -> uint64_t {
      polls->push_back(sim.Now());
      if (++idle >= 4) poller.Park();
      return 25;
    });
    poller.Start();
    for (int i = 0; i < 50; i++) {
      sim.At(rng() % 100'000, [&] {
        idle = 0;
        poller.Wake();
      });
    }
    sim.RunUntil(100'000);
    poller.Stop();
    return sim.events_executed();
  };
  std::vector<sim::SimTime> a, b;
  const uint64_t ea = run(&a);
  const uint64_t eb = run(&b);
  EXPECT_EQ(ea, eb);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// ---------------------------------------------------------------------------
// ShardedEngine: conservative parallel execution (DESIGN.md 14)
// ---------------------------------------------------------------------------

TEST(ShardedEngineTest, CrossPartitionPostsDeliverAtExactTimes) {
  sim::ShardedEngine::Options opts;
  opts.partitions = 2;
  opts.workers = 2;
  opts.lookahead_ns = 100;
  sim::ShardedEngine eng(opts);

  std::vector<sim::SimTime> delivered;  // partition 1 state
  eng.partition(0).At(50, [&] {
    // Running on partition 0 at t=50; both arrivals respect the
    // lookahead and must run at their exact timestamps, later first
    // to prove time order is restored at the destination.
    eng.Post(0, 1, 400, [&] {
      EXPECT_EQ(eng.partition(1).Now(), 400u);
      delivered.push_back(400);
    });
    eng.Post(0, 1, 150, [&] {
      EXPECT_EQ(eng.partition(1).Now(), 150u);
      delivered.push_back(150);
    });
  });
  eng.RunUntil(1000);
  EXPECT_EQ(delivered, (std::vector<sim::SimTime>{150, 400}));
  EXPECT_EQ(eng.partition(0).Now(), 1000u);
  EXPECT_EQ(eng.partition(1).Now(), 1000u);
  EXPECT_EQ(eng.messages_sent(), 2u);
}

TEST(ShardedEngineTest, SetupTimePostsBypassTheLookahead) {
  sim::ShardedEngine::Options opts;
  opts.partitions = 2;
  opts.lookahead_ns = 1000;
  sim::ShardedEngine eng(opts);
  bool ran = false;
  // The engine is not running: this goes straight onto partition 1's
  // queue even though 5 < lookahead.
  eng.Post(0, 1, 5, [&] { ran = true; });
  eng.RunUntil(10);
  EXPECT_TRUE(ran);
  EXPECT_EQ(eng.messages_sent(), 0u);  // direct schedule, no outbox
}

TEST(ShardedEngineTest, SameTimeBurstsDeliverInSourceThenSendOrder) {
  // Two sources each post a 1000-message same-time burst into one
  // destination within one window.
  constexpr int kBurst = 1000;
  for (uint32_t workers : {1u, 2u}) {
    sim::ShardedEngine::Options opts;
    opts.partitions = 3;
    opts.workers = workers;
    opts.lookahead_ns = 10;
    sim::ShardedEngine eng(opts);

    std::vector<std::pair<uint32_t, int>> received;  // partition 2 state
    for (uint32_t src : {1u, 0u}) {
      eng.partition(src).At(1, [&eng, &received, src] {
        for (int i = 0; i < kBurst; i++) {
          eng.Post(src, 2, 500,
                   [&received, src, i] { received.emplace_back(src, i); });
        }
      });
    }
    eng.RunUntil(600);
    ASSERT_EQ(received.size(), 2u * kBurst) << "workers " << workers;
    for (int k = 0; k < 2 * kBurst; k++) {
      const auto want = std::make_pair(k < kBurst ? 0u : 1u, k % kBurst);
      ASSERT_EQ(received[k], want) << "workers " << workers << " at " << k;
    }
    EXPECT_EQ(eng.messages_sent(), 2u * kBurst);
  }
}

TEST(ShardedEngineTest, OutboxesAreReusedAcrossRunUntilCalls) {
  // Every partition posts across partitions once per lookahead, so in
  // every round of every RunUntil each outbox it uses is filled,
  // drained and cleared again.
  constexpr uint32_t kParts = 4;
  constexpr sim::SimTime kLookahead = 20;
  constexpr sim::SimTime kEnd = 10'000;
  sim::ShardedEngine::Options opts;
  opts.partitions = kParts;
  opts.workers = 2;
  opts.lookahead_ns = kLookahead;
  sim::ShardedEngine eng(opts);

  // ran[p * (kEnd + 1) + t] counts runs of the message partition p
  // sent at t; each entry is touched only by its destination partition.
  std::vector<int> ran(kParts * (kEnd + 1), 0);
  struct Tick {
    sim::ShardedEngine* eng;
    int* ran;
    uint32_t at;

    void operator()() const {
      const sim::SimTime now = eng->partition(at).Now();
      const uint32_t dst = (at + 1 + static_cast<uint32_t>(now % 3)) % kParts;
      int* slot = ran + at * (kEnd + 1) + now;
      eng->Post(at, dst, now + kLookahead, [slot] { ++*slot; });
      eng->partition(at).After(kLookahead, *this);
    }
  };
  for (uint32_t p = 0; p < kParts; p++) {
    eng.partition(p).At(p + 1, Tick{&eng, ran.data(), p});
  }
  for (sim::SimTime until = 1000; until <= kEnd; until += 1000) {
    eng.RunUntil(until);
  }

  uint64_t posted = 0;
  for (uint32_t p = 0; p < kParts; p++) {
    for (sim::SimTime t = p + 1; t <= kEnd; t += kLookahead) {
      posted++;
      // Messages still in flight at the end have not run yet.
      const int want = t + kLookahead <= kEnd ? 1 : 0;
      ASSERT_EQ(ran[p * (kEnd + 1) + t], want) << "partition " << p
                                                << " t " << t;
    }
  }
  EXPECT_EQ(eng.messages_sent(), posted);
}

TEST(ShardedEngineTest, RunUntilAdvancesEveryPartitionToTheBound) {
  sim::ShardedEngine::Options opts;
  opts.partitions = 3;
  opts.workers = 2;
  opts.lookahead_ns = 7;
  sim::ShardedEngine eng(opts);
  eng.RunUntil(123);  // no events at all
  for (uint32_t p = 0; p < 3; p++) EXPECT_EQ(eng.partition(p).Now(), 123u);
  eng.partition(1).At(200, [] {});
  eng.RunUntil(500);  // repeated runs with a non-empty partition
  for (uint32_t p = 0; p < 3; p++) EXPECT_EQ(eng.partition(p).Now(), 500u);
  EXPECT_EQ(eng.events_executed(), 1u);
}

TEST(ShardedEngineTest, PhaseTimesSumToAtMostTheWallTime) {
  // Every partition keeps a cross-partition ping going, so each worker
  // drains, runs and waits in every round.
  constexpr uint32_t kParts = 4;
  constexpr sim::SimTime kLookahead = 20;
  for (uint32_t workers : {1u, 3u}) {
    sim::ShardedEngine::Options opts;
    opts.partitions = kParts;
    opts.workers = workers;
    opts.lookahead_ns = kLookahead;
    sim::ShardedEngine eng(opts);
    struct Ping {
      sim::ShardedEngine* eng;
      uint32_t at;

      void operator()() const {
        const uint32_t dst = (at + 1) % kParts;
        eng->Post(at, dst, eng->partition(at).Now() + kLookahead,
                  Ping{eng, dst});
      }
    };
    for (uint32_t p = 0; p < kParts; p++) {
      eng.partition(p).At(p + 1, Ping{&eng, p});
    }

    const auto t0 = std::chrono::steady_clock::now();
    eng.RunUntil(20'000);
    const auto wall = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    ASSERT_EQ(eng.workers(), workers);
    for (uint32_t w = 0; w < workers; w++) {
      const uint64_t sum =
          eng.drain_ns(w) + eng.run_ns(w) + eng.barrier_wait_ns(w);
      EXPECT_GT(sum, 0u) << "workers " << workers << " w" << w;
      EXPECT_LE(sum, wall) << "workers " << workers << " w" << w;
    }
  }
}

/// The determinism regression the parallel engine is built around:
/// a fixed-seed workload of self-rescheduling chains that ping
/// cross-partition messages must produce byte-identical delivery logs
/// (receiver, time, payload) for ANY worker count.
TEST(ShardedEngineTest, SameSeedRunsAreIdenticalAcrossWorkerCounts) {
  constexpr uint32_t kParts = 5;
  constexpr sim::SimTime kLookahead = 50;
  constexpr sim::SimTime kEnd = 200'000;

  auto run = [&](uint32_t workers) {
    sim::ShardedEngine::Options opts;
    opts.partitions = kParts;
    opts.workers = workers;  // clamped to partitions when larger
    opts.lookahead_ns = kLookahead;
    sim::ShardedEngine eng(opts);

    // One log and one LCG per partition, only ever touched by events
    // running on that partition.
    auto logs = std::make_unique<std::vector<uint64_t>[]>(kParts);
    auto lcgs = std::make_unique<uint64_t[]>(kParts);
    struct Hop {
      sim::ShardedEngine* eng;
      std::vector<uint64_t>* logs_base;
      uint64_t* lcgs;
      uint32_t at;
      uint64_t tag;

      void operator()() const {
        logs_base[at].push_back(eng->partition(at).Now() ^ tag);
        uint64_t& lcg = lcgs[at];
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const uint32_t dst = static_cast<uint32_t>((lcg >> 33) % kParts);
        const sim::SimTime t = eng->partition(at).Now() + kLookahead +
                               ((lcg >> 13) % 400);
        if (t >= kEnd) return;
        eng->Post(at, dst, t, Hop{eng, logs_base, lcgs, dst, lcg >> 7});
      }
    };
    for (uint32_t p = 0; p < kParts; p++) {
      lcgs[p] = 0x9e3779b9u * (p + 1);
      for (int c = 0; c < 8; c++) {
        eng.partition(p).At(p + c + 1,
                            Hop{&eng, logs.get(), lcgs.get(), p, 0});
      }
    }
    eng.RunUntil(kEnd);
    std::vector<uint64_t> flat;
    for (uint32_t p = 0; p < kParts; p++) {
      flat.insert(flat.end(), logs[p].begin(), logs[p].end());
    }
    flat.push_back(eng.events_executed());
    flat.push_back(eng.messages_sent());
    return flat;
  };

  const auto w1 = run(1);
  const auto w2 = run(2);
  const auto w4 = run(4);
  const auto w8 = run(8);  // more workers than partitions: clamped
  EXPECT_GT(w1.size(), 100u);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
  EXPECT_EQ(w1, w8);
}

}  // namespace
}  // namespace redy
