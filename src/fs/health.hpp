// Per-server health tracking for the client path (partition tolerance).
//
// One CircuitBreaker (common/breaker.hpp) per participating node, shared
// by every Client of the filesystem (clients are transient by-value
// handles; the registry lives in the FileSystem). Everything is driven by
// simulated time passed in by the caller, so the breakers are
// deterministic and replay exactly under a fixed seed.
#pragma once

#include <cstddef>
#include <unordered_map>

#include "common/breaker.hpp"
#include "common/result.hpp"
#include "common/types.hpp"

namespace memfss::obs {
struct Observability;
}

namespace memfss::fs {

/// NodeId -> CircuitBreaker map plus aggregate counters. With a zero
/// failure_threshold the registry is inert: allow() is always true and
/// record() never mutates, so default-configured deployments behave (and
/// trace) exactly as if it did not exist.
class HealthRegistry {
 public:
  HealthRegistry(BreakerConfig cfg, obs::Observability* obs)
      : cfg_(cfg), obs_(obs) {}

  bool enabled() const { return cfg_.failure_threshold > 0; }
  const BreakerConfig& config() const { return cfg_; }
  void set_config(BreakerConfig cfg) { cfg_ = cfg; }

  /// Whether a request to `n` may be issued now.
  bool allow(NodeId n, SimTime now);

  /// Record the outcome of a request to `n` that was actually issued.
  void record(NodeId n, Errc code, SimTime now);

  BreakerState state(NodeId n) const;

  std::size_t opens() const { return opens_; }       ///< closed/half -> open
  std::size_t rejections() const { return rejections_; }

  /// Count a locally synthesized rejection (caller saw allow() == false).
  void count_rejection() { ++rejections_; }

  /// Drop all breaker state (admin reset between experiment repetitions).
  void reset();

 private:
  BreakerConfig cfg_;
  obs::Observability* obs_;
  std::unordered_map<NodeId, CircuitBreaker> breakers_;
  std::size_t opens_ = 0;
  std::size_t rejections_ = 0;
};

}  // namespace memfss::fs
