#pragma once

// A single-threaded NDJSON load client over loopback TCP. One thread drives
// every connection: requests are written whole (blocking send), responses
// are read with epoll and matched to their request by per-connection order,
// which the server guarantees. The client does no JSON parsing; the caller
// gets each response line with the request it answers.

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace pb {

class Client {
 public:
  struct Pending {
    std::uint64_t id;
    std::uint64_t due_ns;   ///< when the request was due (open loop) or sent
    std::uint64_t sent_ns;
  };
  using OnResponse = std::function<void(unsigned conn, const Pending& req,
                                        std::uint64_t recv_ns,
                                        std::string_view line)>;

  /// Connects `conns` sockets to 127.0.0.1:port; throws std::runtime_error
  /// when a connection cannot be made.
  Client(unsigned short port, unsigned conns);
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Writes `line` (which must end in '\n') on connection `conn`.
  void send(unsigned conn, std::string_view line, std::uint64_t id,
            std::uint64_t due_ns) {
    queue(conn, line, id, due_ns);
    flush(conn);
  }
  /// Buffers `line` for connection `conn`; flush() writes it.
  void queue(unsigned conn, std::string_view line, std::uint64_t id,
             std::uint64_t due_ns);
  /// Writes every buffered line (one write per connection).
  void flush();
  void flush(unsigned conn);
  /// Waits up to `timeout_ns` (0 = poll) for responses and hands each
  /// complete line to `fn`. Returns the number of lines delivered; throws
  /// std::runtime_error when a connection closes with requests outstanding.
  std::size_t poll(std::uint64_t timeout_ns, const OnResponse& fn);

  [[nodiscard]] unsigned connections() const noexcept {
    return static_cast<unsigned>(conns_.size());
  }
  [[nodiscard]] std::size_t outstanding() const noexcept { return pending_; }

 private:
  struct Conn {
    int fd = -1;
    std::string rbuf;
    std::string wbuf;
    std::deque<Pending> queue;
  };

  int epfd_ = -1;
  std::vector<Conn> conns_;
  std::size_t pending_ = 0;
  std::vector<char> chunk_;
};

}  // namespace pb
