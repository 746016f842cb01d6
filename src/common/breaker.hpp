// The circuit breaker both stacks use to guard a client against a server
// that stopped answering: fs::HealthRegistry keeps one per node on
// simulated time, netio::ResilientClient one per connection on
// monotonic seconds. The breaker follows the classic three-state
// machine:
//
//   closed     -- requests flow; `failure_threshold` *consecutive*
//                 connectivity faults (timeout / unreachable /
//                 unavailable / io_error, see errc_health_fault) open it;
//   open       -- requests are rejected locally until `cooldown`
//                 elapses;
//   half-open  -- exactly one trial request is let through; success
//                 closes the breaker, failure re-opens it for another
//                 cooldown.
//
// A zero failure_threshold disables the breaker: it never opens.
// Application-level answers (not_found, permission, ...) prove the
// server is alive and close the breaker like any success. Rejections the
// client synthesizes itself never feed back into the state machine.
//
// Callers keep one rule: every request that allow() admits records
// exactly one outcome. A half-open trial that ends without a record
// keeps the trial slot taken, and the breaker then rejects forever.
//
// Time is whatever the caller passes in, so under simulated time the
// state machine is deterministic and replays exactly under a fixed seed.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace memfss {

enum class BreakerState : std::uint8_t { closed, open, half_open };

constexpr std::string_view breaker_state_name(BreakerState s) {
  switch (s) {
    case BreakerState::closed: return "closed";
    case BreakerState::open: return "open";
    case BreakerState::half_open: return "half-open";
  }
  return "?";
}

struct BreakerConfig {
  int failure_threshold = 0;  ///< consecutive faults to open; 0 disables
  SimTime cooldown = 1.0;     ///< open -> half-open trial delay
};

class CircuitBreaker {
 public:
  /// Whether a request may be issued now. Performs the open -> half-open
  /// transition when the cooldown has elapsed; in half-open, admits a
  /// single trial until its outcome is recorded.
  bool allow(const BreakerConfig& cfg, SimTime now);

  /// Record a request outcome. `fault` per errc_health_fault. Returns
  /// true when this record transitioned the breaker to open.
  bool record(const BreakerConfig& cfg, bool fault, SimTime now);

  BreakerState state() const { return state_; }
  int consecutive_failures() const { return consecutive_; }
  /// When an open breaker admits its half-open trial.
  SimTime cooldown_end(const BreakerConfig& cfg) const {
    return opened_at_ + cfg.cooldown;
  }

 private:
  BreakerState state_ = BreakerState::closed;
  int consecutive_ = 0;
  SimTime opened_at_ = 0.0;
  bool trial_in_flight_ = false;
};

}  // namespace memfss
