#include "transport/worker_pool.h"

#include <errno.h>
#include <fcntl.h>
#include <sched.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "transport/wall_clock.h"

namespace redy::transport {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  REDY_CHECK(flags >= 0);
  REDY_CHECK(fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0);
}

}  // namespace

WorkerPool::WorkerPool(int workers, uint64_t max_frame_payload)
    : max_frame_payload_(max_frame_payload) {
  REDY_CHECK(workers >= 1 && workers <= 255);
  for (int i = 0; i < workers; i++) {
    auto w = std::make_unique<Worker>();
    w->epfd = epoll_create1(EPOLL_CLOEXEC);
    REDY_CHECK(w->epfd >= 0);
    w->evfd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    REDY_CHECK(w->evfd >= 0);
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kEventfdTag;
    REDY_CHECK(epoll_ctl(w->epfd, EPOLL_CTL_ADD, w->evfd, &ev) == 0);
    workers_.push_back(std::move(w));
  }
}

WorkerPool::~WorkerPool() {
  Stop();
  for (auto& w : workers_) {
    for (auto& [id, c] : w->conns) {
      if (c->fd >= 0) close(c->fd);
    }
    for (auto& [fd, cb] : w->listeners) close(fd);
    close(w->evfd);
    close(w->epfd);
  }
}

void WorkerPool::Start(Handlers handlers) {
  REDY_CHECK(threads_.empty());
  handlers_ = std::move(handlers);
  stop_.store(false, std::memory_order_relaxed);
  for (size_t i = 0; i < workers_.size(); i++) {
    threads_.emplace_back([this, i] { Run(static_cast<int>(i)); });
    workers_[i]->thread_id = threads_.back().get_id();
  }
}

void WorkerPool::Stop() {
  if (threads_.empty()) return;
  stop_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(w->evfd, &one, sizeof(one));
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
}

bool WorkerPool::OnWorker(int worker) const {
  return std::this_thread::get_id() == workers_[worker]->thread_id;
}

void WorkerPool::Enqueue(int worker, std::function<void()> cmd) {
  Worker& w = *workers_[worker];
  {
    std::lock_guard<std::mutex> lk(w.mu);
    w.commands.push_back(std::move(cmd));
  }
  // Dekker handshake with the worker's park in Run(): it stores
  // `parked` and then re-checks `commands` under mu. Either it sees
  // this command or this load sees it parking.
  if (w.parked.load(std::memory_order_seq_cst)) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = write(w.evfd, &one, sizeof(one));
  }
}

bool WorkerPool::RunCommands(Worker& w,
                             std::vector<std::function<void()>>& scratch) {
  {
    std::lock_guard<std::mutex> lk(w.mu);
    if (w.commands.empty()) return false;
    scratch.swap(w.commands);
  }
  for (auto& cmd : scratch) cmd();
  scratch.clear();
  return true;
}

WorkerPool::ConnId WorkerPool::AddConnection(int fd, uint64_t bound_token) {
  SetNonBlocking(fd);
  const int worker =
      rr_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  const ConnId id = (next_conn_.fetch_add(1, std::memory_order_relaxed) << 8) |
                    static_cast<uint64_t>(worker);
  auto install = [this, worker, fd, id, bound_token] {
    Worker& w = *workers_[worker];
    auto c = std::make_unique<Conn>();
    c->fd = fd;
    c->id = id;
    c->bound_token = bound_token;
    struct epoll_event ev = {};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = id;
    if (epoll_ctl(w.epfd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      if (handlers_.on_close) handlers_.on_close(id, bound_token);
      return;
    }
    w.conns.emplace(id, std::move(c));
  };
  if (OnWorker(worker)) {
    install();
  } else {
    Enqueue(worker, std::move(install));
  }
  return id;
}

void WorkerPool::AddListener(int listen_fd, std::function<void(int)> on_accept) {
  SetNonBlocking(listen_fd);
  Enqueue(0, [this, listen_fd, cb = std::move(on_accept)]() mutable {
    Worker& w = *workers_[0];
    struct epoll_event ev = {};
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerBit | static_cast<uint64_t>(listen_fd);
    REDY_CHECK(epoll_ctl(w.epfd, EPOLL_CTL_ADD, listen_fd, &ev) == 0);
    w.listeners.emplace(listen_fd, std::move(cb));
  });
}

void WorkerPool::Send(ConnId conn, std::vector<uint8_t> buf) {
  const int worker = WorkerOf(conn);
  auto deliver = [this, worker, conn, b = std::move(buf)]() mutable {
    Worker& w = *workers_[worker];
    auto it = w.conns.find(conn);
    if (it == w.conns.end() || it->second->closing) return;
    Conn& c = *it->second;
    c.outq.push_back(std::move(b));
    MarkDirty(w, c);
  };
  if (OnWorker(worker)) {
    deliver();
  } else {
    Enqueue(worker, std::move(deliver));
  }
}

void WorkerPool::Close(ConnId conn) {
  const int worker = WorkerOf(conn);
  auto doit = [this, worker, conn] {
    Worker& w = *workers_[worker];
    auto it = w.conns.find(conn);
    if (it == w.conns.end()) return;
    CloseConn(w, *it->second);
  };
  if (OnWorker(worker)) {
    doit();
  } else {
    Enqueue(worker, std::move(doit));
  }
}

void WorkerPool::CloseConn(Worker& w, Conn& c) {
  if (c.closing) return;
  c.closing = true;
  epoll_ctl(w.epfd, EPOLL_CTL_DEL, c.fd, nullptr);
  close(c.fd);
  c.fd = -1;
  const ConnId id = c.id;
  const uint64_t token = c.bound_token;
  w.conns.erase(id);  // invalidates c
  if (handlers_.on_close) handlers_.on_close(id, token);
}

void WorkerPool::UpdateInterest(Worker& w, Conn& c) {
  const bool want = !c.outq.empty();
  if (want == c.want_write) return;
  c.want_write = want;
  struct epoll_event ev = {};
  ev.events = EPOLLIN | EPOLLRDHUP | (want ? EPOLLOUT : 0u);
  ev.data.u64 = c.id;
  epoll_ctl(w.epfd, EPOLL_CTL_MOD, c.fd, &ev);
}

void WorkerPool::MarkDirty(Worker& w, Conn& c) {
  if (c.dirty) return;
  c.dirty = true;
  w.dirty.push_back(c.id);
}

void WorkerPool::FlushDirty(Worker& w) {
  // Indexed: a close handler run from FlushOut may queue more.
  for (size_t i = 0; i < w.dirty.size(); i++) {
    auto it = w.conns.find(w.dirty[i]);
    if (it == w.conns.end()) continue;
    it->second->dirty = false;
    FlushOut(w, *it->second);
  }
  w.dirty.clear();
}

void WorkerPool::FlushOut(Worker& w, Conn& c) {
  while (!c.outq.empty()) {
    // Gather the queued frames in order; the front may be part-sent.
    struct iovec iov[kMaxIov];
    int cnt = 0;
    size_t want = 0;
    for (auto it = c.outq.begin(); it != c.outq.end() && cnt < kMaxIov;
         ++it, ++cnt) {
      const size_t skip = cnt == 0 ? c.out_off : 0;
      iov[cnt].iov_base = it->data() + skip;
      iov[cnt].iov_len = it->size() - skip;
      want += iov[cnt].iov_len;
    }
    struct msghdr msg = {};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(cnt);
    // MSG_NOSIGNAL: a half-closed peer means EPIPE -> CloseConn, not a
    // process-wide SIGPIPE.
    const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Retire every fully sent frame; a short send stops inside one.
      size_t left = static_cast<size_t>(n);
      while (left > 0) {
        const size_t rest = c.outq.front().size() - c.out_off;
        if (left < rest) {
          c.out_off += left;
          break;
        }
        left -= rest;
        c.outq.pop_front();
        c.out_off = 0;
      }
      if (static_cast<size_t>(n) < want) break;  // socket buffer full
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(w, c);
    return;
  }
  // Whatever is left waits for EPOLLOUT, which re-marks the connection
  // dirty so the rest leaves through this same flush.
  UpdateInterest(w, c);
}

void WorkerPool::HandleReadable(Worker& w, Conn& c) {
  // Read straight into the tail of inbuf, growing it when the free tail
  // drops below one chunk.
  while (true) {
    if (c.in_cap - c.in_len < kReadChunk) {
      const size_t cap = std::max(2 * c.in_cap, c.in_len + kReadChunk);
      auto grown = std::make_unique_for_overwrite<uint8_t[]>(cap);
      if (c.in_len != 0) std::memcpy(grown.get(), c.inbuf.get(), c.in_len);
      c.inbuf = std::move(grown);
      c.in_cap = cap;
    }
    const size_t room = c.in_cap - c.in_len;
    const ssize_t n = ::read(c.fd, c.inbuf.get() + c.in_len, room);
    if (n > 0) {
      c.in_len += static_cast<size_t>(n);
      if (static_cast<size_t>(n) == room) continue;
      break;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    CloseConn(w, c);  // EOF or hard error
    return;
  }
  // Parse complete frames by offset, then move the partial tail to the
  // front once. A handler may close the Conn mid-loop (or the parser on
  // a protocol violation), so it is looked up again after each frame.
  const ConnId id = c.id;
  Conn* cc = &c;
  size_t off = 0;
  while (cc->in_len - off >= sizeof(FrameHeader)) {
    const uint8_t* at = cc->inbuf.get() + off;
    FrameHeader hdr;
    std::memcpy(&hdr, at, sizeof(hdr));
    if (hdr.magic != FrameHeader::kMagic ||
        hdr.payload_len > max_frame_payload_) {
      CloseConn(w, *cc);
      return;
    }
    const size_t total = sizeof(FrameHeader) + hdr.payload_len;
    if (cc->in_len - off < total) break;
    std::vector<uint8_t> payload(at + sizeof(FrameHeader), at + total);
    off += total;
    if (hdr.type == static_cast<uint8_t>(FrameType::kConnect)) {
      cc->bound_token = hdr.aux;
    }
    if (handlers_.on_frame) {
      handlers_.on_frame(id, cc->bound_token, hdr, std::move(payload));
    }
    auto it = w.conns.find(id);
    if (it == w.conns.end()) return;
    cc = it->second.get();
  }
  if (off != 0) {
    std::memmove(cc->inbuf.get(), cc->inbuf.get() + off, cc->in_len - off);
    cc->in_len -= off;
  }
}

void WorkerPool::Run(int index) {
  Worker& w = *workers_[index];
  std::vector<std::function<void()>> cmds;
  struct epoll_event evs[64];
  uint64_t idle_since = 0;  // when the current idle stretch began; 0: busy
  while (!stop_.load(std::memory_order_acquire)) {
    // 1. Commands from other threads: the loop's sends, installs, closes.
    const bool ran = RunCommands(w, cmds);

    // 2. Ready sockets: polled while busy or spinning, awaited once the
    //    idle stretch outlasts the spin budget.
    int timeout_ms = 0;
    if (!ran) {
      const uint64_t now = WallClockDriver::MonotonicNs();
      if (idle_since == 0) idle_since = now;
      if (now - idle_since >= WallClockDriver::kIdleSpinNs) {
        // Announce the park, then re-check under mu (see Enqueue).
        w.parked.store(true, std::memory_order_seq_cst);
        bool empty;
        {
          std::lock_guard<std::mutex> lk(w.mu);
          empty = w.commands.empty();
        }
        if (!empty) {
          w.parked.store(false, std::memory_order_relaxed);
          continue;
        }
        timeout_ms = WallClockDriver::kMaxParkMs;
      }
    }
    const int n = epoll_wait(w.epfd, evs, 64, timeout_ms);
    if (timeout_ms != 0) w.parked.store(false, std::memory_order_relaxed);
    // EINTR counts as no events: the flush below must still run for
    // what this pass's commands queued.
    if (n < 0 && errno != EINTR) break;
    if (ran || n > 0) {
      idle_since = 0;
    } else if (timeout_ms == 0) {
      sched_yield();  // spinning: let a co-scheduled producer run
    }
    for (int i = 0; i < n; i++) {
      const uint64_t tag = evs[i].data.u64;
      if (tag == kEventfdTag) {
        // A doorbell: the commands it announces run at the top of the
        // next pass.
        uint64_t drained;
        while (read(w.evfd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (tag & kListenerBit) {
        const int lfd = static_cast<int>(tag & ~kListenerBit);
        auto lit = w.listeners.find(lfd);
        if (lit == w.listeners.end()) continue;
        while (true) {
          const int fd = accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
          if (fd < 0) break;
          lit->second(fd);
        }
        continue;
      }
      auto it = w.conns.find(tag);
      if (it == w.conns.end()) continue;
      Conn& c = *it->second;
      if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConn(w, c);
        continue;
      }
      if (evs[i].events & EPOLLOUT) MarkDirty(w, c);
      if (evs[i].events & (EPOLLIN | EPOLLRDHUP)) HandleReadable(w, c);
    }

    // 3. One gathered send per connection that gained frames.
    FlushDirty(w);
  }
  // Drain any last commands so no cross-thread caller is left holding a
  // promise that will never resolve, and send what they queued.
  RunCommands(w, cmds);
  FlushDirty(w);
}

}  // namespace redy::transport
