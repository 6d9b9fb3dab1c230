#include "serve/client.hpp"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/errors.hpp"
#include "sim/scenario.hpp"

namespace nrn::serve {

namespace {

[[noreturn]] void fail(const std::string& what) { throw sim::SpecError(what); }

}  // namespace

LineClient LineClient::connect_unix(const std::string& socket_path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path)
    fail("serve client: socket path too long: " + socket_path);
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail("serve client: cannot create unix socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = errno_text(errno);
    ::close(fd);
    fail("serve client: cannot connect to " + socket_path + ": " + why);
  }
  return LineClient(fd);
}

LineClient LineClient::connect_tcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("serve client: cannot create tcp socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const std::string why = errno_text(errno);
    ::close(fd);
    fail("serve client: cannot connect to 127.0.0.1:" + std::to_string(port) +
         ": " + why);
  }
  return LineClient(fd);
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

void LineClient::send(const Message& message) {
  std::string line = message.serialize();
  line += '\n';
  send_raw(line);
}

void LineClient::send_raw(const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    fail("serve client: connection lost while sending");
  }
}

std::optional<Message> LineClient::recv() {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      const std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return Message::parse(line);
    }
    char buf[65536];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;  // daemon closed (or the connection broke)
  }
}

}  // namespace nrn::serve
