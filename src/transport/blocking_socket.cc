#include "transport/blocking_socket.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common/logging.h"

namespace redy::transport {

namespace {

bool ParseAddr(const std::string& host, uint16_t port, sockaddr_in* addr) {
  *addr = {};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

int DialTcp(const std::string& host, uint16_t port) {
  sockaddr_in addr;
  if (!ParseAddr(host, port, &addr)) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

int ListenTcp(const std::string& host, uint16_t port, int backlog,
              uint16_t* bound_port) {
  sockaddr_in addr;
  REDY_CHECK(ParseAddr(host, port, &addr));
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  REDY_CHECK(fd >= 0);
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  REDY_CHECK(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
             0);
  REDY_CHECK(::listen(fd, backlog) == 0);
  socklen_t len = sizeof(addr);
  REDY_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) ==
             0);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

bool WriteFully(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r > 0) {
      p += r;
      n -= static_cast<size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace redy::transport
