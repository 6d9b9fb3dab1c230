// Blocking line client for the serve daemon.
//
// LineClient is the transport half of `nrn_sim submit` / `status` /
// `shutdown` and of the serve tests: connect to the daemon's unix socket
// (or 127.0.0.1 TCP port), send one-line requests, block on one-line
// replies.  Replies have no inbound size cap -- a plan_done line carries a
// whole report -- and framing is a plain '\n' scan because json_escape
// guarantees no raw newline ever appears inside a message.
#pragma once

#include <optional>
#include <string>

#include "serve/wire.hpp"

namespace nrn::serve {

class LineClient {
 public:
  /// Connects; throws SpecError when nothing listens there.
  static LineClient connect_unix(const std::string& socket_path);
  static LineClient connect_tcp(int port);  ///< 127.0.0.1 only

  ~LineClient();
  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Serializes and sends one message line.  Throws SpecError on a broken
  /// connection.
  void send(const Message& message);

  /// Sends raw bytes verbatim (no framing added) -- how the protocol
  /// tests drive malformed and oversized lines at the daemon.
  void send_raw(const std::string& bytes);

  /// Blocks for the next reply line; nullopt when the daemon closed the
  /// connection.  Throws WireError when the line does not parse.
  std::optional<Message> recv();

 private:
  explicit LineClient(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::string buffer_;
};

}  // namespace nrn::serve
