#ifndef REDY_TRANSPORT_BLOCKING_SOCKET_H_
#define REDY_TRANSPORT_BLOCKING_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace redy::transport {

/// Blocking-socket helpers for the setup paths of the socket backend:
/// the fabric's cross-process dial and listener, and the control plane.
/// Data-path streams go through WorkerPool instead.

/// Dials host:port over TCP with TCP_NODELAY set. Returns the connected
/// fd, or -1 if the address does not parse or the dial fails.
int DialTcp(const std::string& host, uint16_t port);

/// Listens on host:port (0 = any free port) and stores the bound port in
/// `*bound_port`. Setup failure is fatal (REDY_CHECK).
int ListenTcp(const std::string& host, uint16_t port, int backlog,
              uint16_t* bound_port);

/// Sends all `n` bytes, retrying EINTR. False on any other error or a
/// closed peer; a peer tearing down mid-write surfaces as EPIPE, never
/// as SIGPIPE.
bool WriteFully(int fd, const void* buf, size_t n);

}  // namespace redy::transport

#endif  // REDY_TRANSPORT_BLOCKING_SOCKET_H_
