#include "transport/wall_clock.h"

#include <sched.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.h"

namespace redy::transport {

WallClockDriver::WallClockDriver(sim::Simulation* sim) : sim_(sim) {
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  REDY_CHECK(epfd_ >= 0);
  evfd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  REDY_CHECK(evfd_ >= 0);
  struct epoll_event ev = {};
  ev.events = EPOLLIN;
  ev.data.fd = evfd_;
  REDY_CHECK(epoll_ctl(epfd_, EPOLL_CTL_ADD, evfd_, &ev) == 0);
}

WallClockDriver::~WallClockDriver() {
  Stop();
  if (evfd_ >= 0) close(evfd_);
  if (epfd_ >= 0) close(epfd_);
}

uint64_t WallClockDriver::MonotonicNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void WallClockDriver::Start() {
  REDY_CHECK(!thread_.joinable());
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
  loop_id_ = thread_.get_id();
}

void WallClockDriver::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  RingDoorbell();
  thread_.join();
  loop_id_ = std::thread::id();
}

void WallClockDriver::RingDoorbell() {
  uint64_t one = 1;
  // A full eventfd counter still wakes the loop; ignore short writes.
  [[maybe_unused]] ssize_t n = write(evfd_, &one, sizeof(one));
}

void WallClockDriver::Post(sim::InlineFunction fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    mailbox_.push_back(std::move(fn));
    has_mail_.store(true, std::memory_order_relaxed);
  }
  // Dekker handshake with the loop's park (step 4 of Loop): the loop
  // stores parked_ and then re-checks the mailbox under mu_; we push
  // under mu_ and then load parked_. Either it sees our mail or we see
  // it parking, so no post is stranded behind a sleeping loop.
  if (parked_.load(std::memory_order_seq_cst)) RingDoorbell();
}

bool WallClockDriver::SpinForMail() const {
  const uint64_t until = MonotonicNs() + kIdleSpinNs;
  do {
    if (has_mail_.load(std::memory_order_relaxed)) return true;
    // Hand the core to any runnable thread first: on a busy machine the
    // poster we wait for may be queued behind this very spin.
    sched_yield();
  } while (MonotonicNs() < until);
  return false;
}

void WallClockDriver::Loop() {
  const uint64_t t0 = MonotonicNs();
  std::vector<sim::InlineFunction> batch;
  // Only a loop that did work since its last park spins before parking
  // again; a park that timed out with nothing due parks again straight
  // away, so an idle process stays asleep.
  bool spin = true;
  while (true) {
    // 1. Drain the mailbox: completions, doorbells, and Call() bodies
    //    posted by worker / control threads run here, on the one thread
    //    allowed to touch simulator state.
    {
      std::lock_guard<std::mutex> lk(mu_);
      batch.swap(mailbox_);
      has_mail_.store(false, std::memory_order_relaxed);
    }
    bool worked = !batch.empty();
    for (auto& fn : batch) fn();
    batch.clear();
    if (stop_.load(std::memory_order_acquire)) break;

    // 2. Fire every event the wall clock has caught up to. RunUntil
    //    also advances Now() to the wall reading, so timers scheduled
    //    by the callbacks stay anchored to real time.
    const uint64_t executed = sim_->events_executed();
    sim_->RunUntil(MonotonicNs() - t0);
    worked = worked || sim_->events_executed() != executed;
    if (worked) {
      spin = true;
      // Awake again (a timed-out park leaves the flag set): posts need
      // no doorbell until the next park.
      if (parked_.load(std::memory_order_relaxed)) {
        parked_.store(false, std::memory_order_relaxed);
      }
    }

    // 3. Respin for a near event; otherwise spin for mail, then park.
    if (has_mail_.load(std::memory_order_relaxed)) continue;
    const sim::SimTime next = sim_->NextEventTime();
    if (next != sim::Simulation::kNoEvent &&
        next <= MonotonicNs() - t0 + kSpinHorizonNs) {
      continue;
    }
    if (spin) {
      spin = false;
      if (SpinForMail()) continue;
    }

    // 4. Park. Announce it first, then re-check the mailbox under mu_
    //    (see Post). A doorbell rung after the check leaves the eventfd
    //    readable, so epoll_wait returns at once.
    parked_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!mailbox_.empty()) continue;
    }
    int timeout_ms = kMaxParkMs;
    if (next != sim::Simulation::kNoEvent) {
      const uint64_t now = MonotonicNs() - t0;
      if (next <= now) continue;
      timeout_ms = static_cast<int>(
          std::min<uint64_t>((next - now) / 1'000'000, kMaxParkMs));
      if (timeout_ms <= 0) continue;
    }
    idle_blocks_.fetch_add(1, std::memory_order_relaxed);
    struct epoll_event ev;
    const int n = epoll_wait(epfd_, &ev, 1, timeout_ms);
    if (n > 0) {
      uint64_t drained;
      while (read(evfd_, &drained, sizeof(drained)) > 0) {
      }
      wakeups_.fetch_add(1, std::memory_order_relaxed);
      parked_.store(false, std::memory_order_relaxed);
    }
    // A timed-out park keeps parked_ set: the next pass either finds
    // nothing and parks again, or does work and clears it in step 2.
  }
}

}  // namespace redy::transport
