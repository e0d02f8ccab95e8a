#ifndef REDY_TRANSPORT_WORKER_POOL_H_
#define REDY_TRANSPORT_WORKER_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "transport/frame.h"

namespace redy::transport {

/// Epoll worker pool of the socket backend (DESIGN.md §13; shape after
/// the classic one-epoll-instance-per-worker server idiom). Each worker
/// thread owns an epoll instance, an eventfd doorbell, and every
/// connection assigned to it: all reads, writes, frame parsing, and —
/// crucially — the one-sided responder work for frames arriving on its
/// connections happen on that thread, never on the application loop.
/// Connections are assigned round-robin at add time and never migrate,
/// so per-connection state needs no locking and the stream's FIFO
/// delivery survives as the QP's in-order guarantee.
///
/// Each worker runs in passes: run the commands other threads posted,
/// handle the ready sockets (parsing frames and running the responder),
/// then flush every connection that gained outbound frames with one
/// gathering sendmsg. Send() never writes the socket itself; it appends
/// the frame to the connection's queue, so every frame — commands from
/// the loop and acks sent while parsing alike — leaves in post order,
/// and a pass's frames for one connection share one syscall.
///
/// Cross-thread entry points (AddConnection / Send / Close) hand the
/// owning worker a command through a mutex-guarded queue; calls made on
/// the owning worker itself (the common ack path: respond to a frame
/// you just parsed) skip the queue. An idle worker keeps polling its
/// queue and sockets for WallClockDriver::kIdleSpinNs, then parks in
/// epoll_wait; producers ring its eventfd only once it has announced
/// the park.
class WorkerPool {
 public:
  /// Connection handle. Encodes the owning worker so any thread can
  /// route commands without a global registry.
  using ConnId = uint64_t;

  struct Handlers {
    /// A complete, validated frame arrived on `conn`. Runs on the
    /// owning worker thread. `bound_token` is the QP token the stream
    /// was bound to (0 until a kConnect is seen or AddConnection bound
    /// one).
    std::function<void(ConnId conn, uint64_t bound_token,
                       const FrameHeader& hdr, std::vector<uint8_t> payload)>
        on_frame;
    /// The connection died (EOF, error, oversized/corrupt frame, or an
    /// explicit Close). Runs on the owning worker thread, exactly once.
    std::function<void(ConnId conn, uint64_t bound_token)> on_close;
  };

  explicit WorkerPool(int workers, uint64_t max_frame_payload = kDefaultMaxPayload);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void Start(Handlers handlers);
  void Stop();
  bool running() const { return !threads_.empty(); }
  int workers() const { return static_cast<int>(workers_.size()); }

  /// Adopts an established stream socket (takes ownership of `fd`, sets
  /// it nonblocking). `bound_token` pre-binds the stream to a QP token
  /// (dialer side); pass 0 for accepted streams that will bind on their
  /// first kConnect frame. Thread-safe.
  ConnId AddConnection(int fd, uint64_t bound_token);

  /// Queues `buf` (an encoded frame) on the connection's outbound
  /// stream; it is written at the end of the owning worker's current or
  /// next pass. Thread-safe.
  void Send(ConnId conn, std::vector<uint8_t> buf);

  /// Asynchronously closes the connection (on_close fires on the owning
  /// worker). Thread-safe, idempotent.
  void Close(ConnId conn);

  /// Registers a listening socket on worker 0; `on_accept` runs on
  /// worker 0 for every accepted fd (typically forwarding to
  /// AddConnection). Call before or after Start. Takes ownership.
  void AddListener(int listen_fd, std::function<void(int fd)> on_accept);

  static constexpr uint64_t kDefaultMaxPayload = 64ull * 1024 * 1024;

 private:
  struct Conn {
    int fd = -1;
    ConnId id = 0;
    uint64_t bound_token = 0;
    /// Inbound bytes: reads land at inbuf[in_len..in_cap), frames parse
    /// from the front. Left uninitialized, so untouched capacity costs
    /// no resident memory.
    std::unique_ptr<uint8_t[]> inbuf;
    size_t in_cap = 0;
    size_t in_len = 0;
    /// Outbound frames awaiting the socket; front may be part-sent.
    std::deque<std::vector<uint8_t>> outq;
    size_t out_off = 0;  // sent bytes of outq.front()
    bool want_write = false;
    bool closing = false;
    /// Listed in Worker::dirty, to be flushed at the end of the pass.
    bool dirty = false;
  };

  struct Worker {
    int epfd = -1;
    int evfd = -1;
    std::mutex mu;
    std::vector<std::function<void()>> commands;
    /// Set before the worker's final command check ahead of a blocking
    /// epoll_wait; Enqueue rings evfd only when it reads true.
    std::atomic<bool> parked{false};
    std::unordered_map<ConnId, std::unique_ptr<Conn>> conns;
    /// Connections with frames queued this pass (owning thread only).
    std::vector<ConnId> dirty;
    std::unordered_map<int, std::function<void(int)>> listeners;
    std::thread::id thread_id;
  };

  static constexpr uint64_t kEventfdTag = ~0ull;
  static constexpr uint64_t kListenerBit = 1ull << 63;
  /// Minimum free tail offered to each read.
  static constexpr size_t kReadChunk = 64 * 1024;
  /// Frames gathered into one sendmsg at most.
  static constexpr int kMaxIov = 64;

  void Run(int index);
  void Enqueue(int worker, std::function<void()> cmd);
  bool OnWorker(int worker) const;
  /// Runs the queued commands; true if there were any.
  bool RunCommands(Worker& w, std::vector<std::function<void()>>& scratch);
  void HandleReadable(Worker& w, Conn& c);
  void MarkDirty(Worker& w, Conn& c);
  /// The end of a pass: one gathered flush per dirty connection.
  void FlushDirty(Worker& w);
  void FlushOut(Worker& w, Conn& c);
  void UpdateInterest(Worker& w, Conn& c);
  void CloseConn(Worker& w, Conn& c);
  static int WorkerOf(ConnId id) { return static_cast<int>(id & 0xff); }

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  Handlers handlers_;
  uint64_t max_frame_payload_;
  std::atomic<uint64_t> next_conn_{1};
  std::atomic<int> rr_{0};
  std::atomic<bool> stop_{false};
};

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_WORKER_POOL_H_
