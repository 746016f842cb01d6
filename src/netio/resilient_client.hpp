// Fault-tolerant wrapper over NetClient for the rt TCP serving path
// (DESIGN.md §15). The paper's premise is that scavenged memory is
// *volatile*: a donor can reclaim its pages -- and kill its server --
// at any moment, so the client must treat abrupt peer loss as a normal
// event. ResilientClient turns NetClient's single-shot calls into
// deadline-bounded ones:
//
//   - reconnect + exponential backoff with jitter after any transport
//     fault (connect failure, send failure, recv timeout, EOF, reset);
//   - retry of *idempotent* ops keyed on the request id: the same id
//     and bytes are re-sent, so a duplicate application is
//     indistinguishable from the first (PUT of deterministic bytes,
//     GET, EXISTS, DEL);
//   - per-call deadlines: retries stop when the budget is spent, and
//     each attempt's recv timeout is clipped to the remainder;
//   - Errc::overloaded honored as an answer, not a fault: wait the
//     server's retry-after hint, then try again (QoS sheds prove the
//     server healthy, so they never trip the breaker);
//   - a connection-level circuit breaker: the one CircuitBreaker of
//     common/breaker.hpp (fs::HealthRegistry keeps one per node), fed
//     monotonic seconds. `breaker.failure_threshold` consecutive health
//     faults (errc_health_fault; decoder corruption counts as io_error)
//     open it, open rejects locally for the cooldown, and half-open
//     admits one trial whose outcome closes or re-opens it. Every
//     attempt the breaker admits records exactly one outcome, and any
//     server answer -- permission during AUTH included -- closes it;
//   - integrity: a corrupted frame (decoder checksum failure), a
//     response carrying kFlagProtocolError, a response for a request id
//     we never sent, or a GET payload whose fnv1a disagrees with the
//     frame's checksum field is *never* surfaced as data -- the
//     connection is aborted and, once the deadline is spent, the call
//     fails with Errc::fatal.
//
// One request in flight per client; not thread-safe (use one per
// worker thread, as the loadgen does).
#pragma once

#include <cstdint>
#include <string>

#include "common/breaker.hpp"
#include "common/rng.hpp"
#include "netio/client.hpp"

namespace memfss::netio {

struct ResilientOptions {
  std::uint16_t port = 0;
  std::string auth_token;  ///< empty = skip the AUTH handshake
  std::uint64_t seed = 1;  ///< backoff jitter stream

  double attempt_recv_timeout_s = 0.25;  ///< per-attempt recv bound
  double default_deadline_s = 5.0;       ///< per-call budget (call arg wins)
  double backoff_base_s = 0.002;  ///< first retry delay (doubles per fault)
  double backoff_max_s = 0.25;
  double backoff_jitter = 0.5;  ///< +/- fraction of the delay

  /// Consecutive faults to open (0 = disabled); cooldown in seconds.
  BreakerConfig breaker{8, 0.2};
};

/// Monotonic per-client counters (single-threaded, read between calls).
struct ResilientStats {
  std::uint64_t attempts = 0;    ///< request transmissions tried
  std::uint64_t retries = 0;     ///< attempts after the first, per call
  std::uint64_t reconnects = 0;  ///< successful re-establishments
  std::uint64_t connect_failures = 0;
  std::uint64_t timeouts = 0;          ///< attempt-level recv timeouts
  std::uint64_t corrupt_frames = 0;    ///< decoder integrity failures
  std::uint64_t protocol_errors = 0;   ///< kFlagProtocolError responses
  std::uint64_t mismatched_ids = 0;    ///< response for an unknown id
  std::uint64_t value_checksum_failures = 0;
  std::uint64_t overloaded_waits = 0;  ///< QoS sheds honored
  std::uint64_t breaker_opens = 0;
  std::uint64_t breaker_rejections = 0;  ///< attempts gated while open
};

/// Result of one resilient call.
struct CallOutcome {
  /// The server's answer (ok / not_found / out_of_memory / ...), or the
  /// final transport failure once the deadline is spent: timeout /
  /// unavailable / rejected (breaker) / fatal (integrity).
  Errc code = Errc::fatal;
  Frame response;  ///< valid iff a server answer was received
  bool answered = false;   ///< response holds a real server frame
  std::uint32_t attempts = 0;
  /// Times the request's bytes were (possibly partially) written to a
  /// socket. > 1 means the op may have been applied more than once and
  /// > 0 with a failed outcome means it may have been applied anyway --
  /// the chaos harness folds both into its unresolved-op model.
  std::uint32_t sends = 0;
};

class ResilientClient {
 public:
  explicit ResilientClient(ResilientOptions opts);

  /// Run one request to completion or deadline. `idempotent` gates
  /// retry-after-send: a non-idempotent op is only retried when we can
  /// prove the server never applied it (connect/send-nothing failures).
  /// `deadline_s` <= 0 uses options.default_deadline_s.
  CallOutcome call(const Frame& request, bool idempotent,
                   double deadline_s = 0);

  const ResilientStats& stats() const { return stats_; }
  bool breaker_open() const { return breaker_.state() == BreakerState::open; }
  /// Drop the connection (orderly). Next call reconnects.
  void disconnect();

 private:
  Status ensure_connected(double remaining_s);
  /// Feed one admitted attempt's outcome to the breaker.
  void record(Errc e);
  double backoff_delay(std::uint32_t fault_streak);

  ResilientOptions opts_;
  NetClient net_;
  Rng rng_;
  ResilientStats stats_;
  std::uint64_t auth_id_ = 0;  ///< ids for the AUTH handshake frames
  CircuitBreaker breaker_;     ///< on monotonic seconds
};

}  // namespace memfss::netio
