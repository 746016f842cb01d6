// Blocking socket client for the rt TCP serving path: one connection,
// pipelining done by the caller (write as many requests as you like,
// then collect responses; the request id is the correlation key).
// Used by bench/loadgen --net and the socket test suites -- the server
// side is deliberately the only nonblocking piece of the stack, so the
// client stays simple enough to reason about in tests.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "netio/frame.hpp"

namespace memfss::netio {

class NetClient {
 public:
  NetClient() = default;
  ~NetClient() { close(); }
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;
  NetClient(NetClient&& o) noexcept
      : fd_(o.fd_),
        decoder_(std::move(o.decoder_)),
        recv_timeout_s_(o.recv_timeout_s_),
        timeout_dirty_(o.timeout_dirty_) {
    o.fd_ = -1;
  }
  NetClient& operator=(NetClient&& o) noexcept {
    if (this != &o) {
      close();  // drop the held fd before adopting the other's
      fd_ = o.fd_;
      decoder_ = std::move(o.decoder_);
      recv_timeout_s_ = o.recv_timeout_s_;
      timeout_dirty_ = o.timeout_dirty_;
      o.fd_ = -1;
    }
    return *this;
  }

  /// Connect to 127.0.0.1:port (TCP_NODELAY on). A previously
  /// configured recv timeout carries over to the new connection.
  Status connect(std::uint16_t port);
  bool connected() const { return fd_ >= 0; }
  void close();
  /// Close with an RST instead of an orderly FIN (SO_LINGER 0): the
  /// peer sees ECONNRESET. Lets tests and the resilient client abandon
  /// a connection with an in-flight request without leaving the server
  /// a half-open stream to drain.
  void abort();

  /// Bound a recv() in seconds (0 = block forever). The bound covers
  /// the whole recv() call: signals (EINTR) and spurious SO_RCVTIMEO
  /// wakeups re-arm the remaining budget instead of either returning a
  /// premature Errc::timeout or resetting the clock.
  Status set_recv_timeout(double seconds);

  /// Write one encoded frame, handling partial writes.
  Status send(const Frame& f);
  /// Write pre-encoded bytes (several frames at once: pipelining).
  Status send_raw(const std::uint8_t* data, std::size_t n);
  Status send_raw(const std::vector<std::uint8_t>& data) {
    return send_raw(data.data(), data.size());
  }

  /// Block until one full frame decodes (or EOF / malformed stream /
  /// timeout). EOF with no buffered frame is Errc::unavailable.
  Result<Frame> recv();

  /// AUTH handshake: send the token, then require an answer with no
  /// protocol-error flag, the same request id, and status ok. A
  /// transport or protocol failure aborts the connection (io_error for
  /// a malformed answer); a rejection closes it and returns the
  /// server's status (e.g. permission).
  Status authenticate(std::uint64_t id, std::string_view token);

  // -- request builders -------------------------------------------------
  static Frame make_put(std::uint64_t id, std::uint32_t tenant,
                        std::string_view key,
                        std::vector<std::uint8_t> value);
  static Frame make_get(std::uint64_t id, std::uint32_t tenant,
                        std::string_view key);
  static Frame make_del(std::uint64_t id, std::uint32_t tenant,
                        std::string_view key);
  static Frame make_exists(std::uint64_t id, std::uint32_t tenant,
                           std::string_view key);
  /// AUTH: the token travels in the key field and becomes the
  /// connection's token for every subsequent request.
  static Frame make_auth(std::uint64_t id, std::string_view token);

 private:
  /// Set SO_RCVTIMEO to `seconds` (<= 0 clears the bound).
  Status apply_recv_timeout(double seconds);

  int fd_ = -1;
  FrameDecoder decoder_;
  double recv_timeout_s_ = 0;   ///< configured bound; 0 = unbounded
  bool timeout_dirty_ = false;  ///< socket timer holds a shortened remainder
};

}  // namespace memfss::netio
