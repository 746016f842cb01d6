#include "netio/resilient_client.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <string_view>
#include <thread>

#include "hash/hashes.hpp"

namespace memfss::netio {

namespace {

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void sleep_s(double s) {
  if (s > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Failures a fresh attempt cannot fix: retrying the identical request
/// is pointless, surface them immediately.
bool permanent_errc(Errc e) {
  return e == Errc::permission || e == Errc::invalid_argument ||
         e == Errc::fatal;
}

/// Why an admitted attempt failed: `cause` feeds the breaker, `code` is
/// what the call reports if it stops here, and `retry` says whether
/// sending the request again is safe.
struct Failure {
  Errc cause;
  Errc code;
  bool retry;
};

}  // namespace

ResilientClient::ResilientClient(ResilientOptions opts)
    : opts_(std::move(opts)), rng_(opts_.seed) {}

void ResilientClient::disconnect() { net_.close(); }

double ResilientClient::backoff_delay(std::uint32_t fault_streak) {
  double d = opts_.backoff_base_s;
  for (std::uint32_t i = 1; i < fault_streak && d < opts_.backoff_max_s; ++i)
    d *= 2;
  d = std::min(d, opts_.backoff_max_s);
  // Full +/- jitter so a fleet of clients doesn't reconnect in lockstep.
  d *= 1.0 + opts_.backoff_jitter * (2 * rng_.next_double() - 1);
  return std::max(d, 0.0);
}

void ResilientClient::record(Errc e) {
  // A corrupted stream is a broken channel: a fault, like io_error.
  const bool fault = e == Errc::corruption || errc_health_fault(e);
  if (breaker_.record(opts_.breaker, fault, mono_s())) ++stats_.breaker_opens;
}

Status ResilientClient::ensure_connected(double remaining_s) {
  if (Status st = net_.connect(opts_.port); !st.ok()) return st;
  net_.set_recv_timeout(
      std::clamp(remaining_s, 1e-3, opts_.attempt_recv_timeout_s));
  // AUTH ids live in a private high range so they can never collide
  // with caller-chosen request ids.
  if (!opts_.auth_token.empty()) {
    if (Status st = net_.authenticate((1ull << 63) | ++auth_id_,
                                      opts_.auth_token);
        !st.ok())
      return st;
  }
  ++stats_.reconnects;
  return {};
}

CallOutcome ResilientClient::call(const Frame& request, bool idempotent,
                                  double deadline_s) {
  if (deadline_s <= 0) deadline_s = opts_.default_deadline_s;
  const double start = mono_s();
  const auto remaining = [&] { return deadline_s - (mono_s() - start); };

  CallOutcome out;
  Errc last_fail = Errc::timeout;
  std::uint32_t fault_streak = 0;
  Frame resp;

  // One attempt the breaker admitted: connect if needed, send, receive
  // and verify. On a server answer it fills `resp` and returns nothing.
  const auto attempt = [&]() -> std::optional<Failure> {
    if (!net_.connected()) {
      if (Status st = ensure_connected(remaining()); !st.ok()) {
        ++stats_.connect_failures;
        return Failure{st.code(), st.code(), !permanent_errc(st.code())};
      }
    }
    ++out.attempts;
    ++stats_.attempts;
    if (out.attempts > 1) ++stats_.retries;

    // Past this point bytes may reach the server even on failure, so a
    // non-idempotent op can no longer be blindly retried.
    ++out.sends;
    if (Status st = net_.send(request); !st.ok())
      return Failure{st.code(), st.code(), idempotent};

    net_.set_recv_timeout(
        std::clamp(remaining(), 1e-3, opts_.attempt_recv_timeout_s));
    Result<Frame> r = net_.recv();
    if (!r.ok()) {
      const Errc e = r.code();
      if (e == Errc::timeout) ++stats_.timeouts;
      if (e != Errc::corruption) return Failure{e, e, idempotent};
      ++stats_.corrupt_frames;  // never surface corrupted data softly
      return Failure{e, Errc::fatal, idempotent};
    }
    resp = std::move(r).value();
    const Failure broken{Errc::io_error, Errc::fatal, idempotent};
    if ((resp.flags & kFlagProtocolError) != 0) {
      // The server's decoder rejected the stream. With one request in
      // flight ours was never executed, but the channel is gone.
      ++stats_.protocol_errors;
      return broken;
    }
    if (resp.request_id != request.request_id) {
      ++stats_.mismatched_ids;
      return broken;
    }
    if (resp.status == static_cast<std::uint8_t>(Errc::ok) &&
        request.opcode == static_cast<std::uint8_t>(Opcode::get) &&
        !resp.value.empty()) {
      // End-to-end integrity: the payload must hash to the checksum the
      // store computed at PUT time. A mismatch that slipped past the
      // frame checksum is still never surfaced as data.
      const std::uint64_t c = hash::fnv1a(std::string_view(
          reinterpret_cast<const char*>(resp.value.data()),
          resp.value.size()));
      if (c != resp.checksum) {
        ++stats_.value_checksum_failures;
        return broken;
      }
    }
    return std::nullopt;
  };

  while (remaining() > 0) {
    // Circuit breaker gate: while open, reject locally (no socket
    // traffic) until the cooldown elapses, then admit one trial.
    const double now = mono_s();
    if (!breaker_.allow(opts_.breaker, now)) {
      ++stats_.breaker_rejections;
      const double wait = breaker_.cooldown_end(opts_.breaker) - now;
      if (wait >= remaining()) {
        out.code = Errc::rejected;
        return out;
      }
      sleep_s(wait);
      continue;
    }

    if (const std::optional<Failure> f = attempt()) {
      // The one fail-and-retry exit. The request may still be in flight
      // server-side: abort with an RST so a late response can't leak
      // into the next call, then back off within the deadline.
      net_.abort();
      record(f->cause);
      last_fail = f->code;
      const double rem = remaining();
      if (!f->retry || rem <= 0) break;
      sleep_s(std::min(backoff_delay(++fault_streak), rem));
      continue;
    }

    record(Errc::ok);
    const Errc code = static_cast<Errc>(resp.status);
    if (code == Errc::overloaded) {
      // A deliberate QoS shed: the server is healthy and nothing was
      // applied, so honoring the hint and retrying is safe for any op.
      ++stats_.overloaded_waits;
      fault_streak = 0;
      const double hint = resp.retry_after_us > 0
                              ? resp.retry_after_us / 1e6
                              : opts_.backoff_base_s;
      if (remaining() - hint > 0) {
        sleep_s(hint);
        continue;
      }
    }
    out.code = code;
    out.response = std::move(resp);
    out.answered = true;
    return out;
  }
  out.code = last_fail;
  return out;
}

}  // namespace memfss::netio
