#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common.hpp"

namespace pb {

Client::Client(unsigned short port, unsigned conns) : chunk_(1 << 16) {
  // Open-loop send times come from poll timeouts; keep their slack at 1 ns.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  epfd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw std::runtime_error("epoll_create1 failed");
  conns_.resize(conns);
  for (unsigned c = 0; c < conns; ++c) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket failed");
    conns_[c].fd = fd;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error(std::string("connect failed: ") +
                               std::strerror(errno));
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = c;
    if (epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      throw std::runtime_error("epoll_ctl failed");
    }
  }
}

Client::~Client() {
  for (const Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (epfd_ >= 0) close(epfd_);
}

void Client::queue(unsigned conn, std::string_view line, std::uint64_t id,
                   std::uint64_t due_ns) {
  Conn& c = conns_[conn];
  c.wbuf.append(line);
  c.queue.push_back({id, due_ns, now_ns()});
  ++pending_;
}

void Client::flush() {
  for (unsigned c = 0; c < conns_.size(); ++c) flush(c);
}

void Client::flush(unsigned conn) {
  Conn& c = conns_[conn];
  std::size_t off = 0;
  while (off < c.wbuf.size()) {
    const ssize_t n =
        ::send(c.fd, c.wbuf.data() + off, c.wbuf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  c.wbuf.clear();
}

std::size_t Client::poll(std::uint64_t timeout_ns, const OnResponse& fn) {
  epoll_event events[64];
  timespec timeout{};
  timeout.tv_sec = static_cast<time_t>(timeout_ns / 1000000000);
  timeout.tv_nsec = static_cast<long>(timeout_ns % 1000000000);
  const int n = epoll_pwait2(epfd_, events, 64, &timeout, nullptr);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error("epoll_wait failed");
  }
  std::size_t delivered = 0;
  for (int e = 0; e < n; ++e) {
    const unsigned ci = events[e].data.u32;
    Conn& c = conns_[ci];
    for (;;) {
      const ssize_t r = recv(c.fd, chunk_.data(), chunk_.size(), MSG_DONTWAIT);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        throw std::runtime_error(std::string("recv failed: ") +
                                 std::strerror(errno));
      }
      if (r == 0) {
        if (!c.queue.empty()) {
          throw std::runtime_error("server closed a connection mid-request");
        }
        break;
      }
      const std::uint64_t recv_ns = now_ns();
      c.rbuf.append(chunk_.data(), static_cast<std::size_t>(r));
      std::size_t start = 0;
      for (;;) {
        const std::size_t nl = c.rbuf.find('\n', start);
        if (nl == std::string::npos) break;
        if (c.queue.empty()) {
          throw std::runtime_error("response without a request");
        }
        const Pending req = c.queue.front();
        c.queue.pop_front();
        --pending_;
        fn(ci, req, recv_ns,
           std::string_view(c.rbuf).substr(start, nl - start));
        ++delivered;
        start = nl + 1;
      }
      c.rbuf.erase(0, start);
      if (static_cast<std::size_t>(r) < chunk_.size()) break;
    }
  }
  return delivered;
}

}  // namespace pb
