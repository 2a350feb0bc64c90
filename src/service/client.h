// Blocking TCP client for the tomography service's line protocol, with an
// explicit deadline.
//
// Every stage of a call is time-bounded by one timeout: the connect runs
// non-blocking under it (a dead or blackholed server cannot park the
// caller in the kernel's minutes-long default), and each reply wait is
// bounded by it via SO_RCVTIMEO/SO_SNDTIMEO.  A failed call closes the
// connection; later calls on the same client throw TransportError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "service/protocol.h"

namespace rnt::service {

/// A connection-level failure: the peer closed or reset the connection
/// (EOF mid-reply, ECONNRESET, EPIPE) or a socket operation failed
/// outright.  Derives from std::runtime_error so existing catch sites keep
/// working; callers that care can distinguish it from timeouts and
/// protocol errors.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

class TcpClient {
 public:
  /// Connects to host:port (host: dotted IPv4 or "localhost") with one
  /// attempt, `timeout_s` bounding both the connect and each reply wait;
  /// throws std::runtime_error when the connect fails.
  TcpClient(const std::string& host, std::uint16_t port,
            double timeout_s = 60.0);

  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Sends one request and waits for its reply line.  Throws
  /// TransportError when the connection died under the call (peer closed
  /// mid-reply, ECONNRESET, EPIPE) or an earlier call already failed, and
  /// plain std::runtime_error for timeouts.
  Response call(const Request& request);

  /// Raw form: sends `line` verbatim (newline appended) and returns the
  /// reply line.
  std::string call_line(const std::string& line);

 private:
  /// One send+receive on the live connection; throws on failure.
  std::string exchange(const std::string& framed);
  void disconnect();

  double timeout_s_ = 60.0;
  int fd_ = -1;
  std::string buffer_;  ///< Bytes received past the last reply line.
};

}  // namespace rnt::service
