// Tiny blocking line-oriented TCP client for the ilpd protocol, shared by
// ilp_loadgen and tests/server/.  Header-only on purpose: both users want a
// couple of calls, not a client library.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>
#include <string>

namespace ilp::server {

class LineClient {
 public:
  LineClient() = default;
  ~LineClient() { close(); }

  LineClient(LineClient&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  LineClient& operator=(LineClient&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      buf_ = std::move(other.buf_);
      other.fd_ = -1;
    }
    return *this;
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  bool connect(const std::string& host, int port) {
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }

  bool send_line(const std::string& line) {
    std::string framed = line;
    framed += '\n';
    return send_raw(framed);
  }

  // Sends bytes exactly as given (no framing) — for pipelining several
  // already-framed lines in one write.
  bool send_raw(const std::string& framed) {
    const char* p = framed.data();
    std::size_t n = framed.size();
    while (n > 0) {
      // MSG_NOSIGNAL: a server that closed the connection is an error
      // return here, not a SIGPIPE for the whole client process.
      const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += w;
      n -= static_cast<std::size_t>(w);
    }
    return true;
  }

  // One response line (newline stripped), or nullopt on timeout/EOF/error.
  std::optional<std::string> recv_line(int timeout_ms = 30'000) {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd p{fd_, POLLIN, 0};
      const int r = ::poll(&p, 1, timeout_ms);
      if (r <= 0) return std::nullopt;  // timeout or poll failure
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        return std::nullopt;  // peer closed
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

}  // namespace ilp::server
