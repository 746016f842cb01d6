#include "fs/health.hpp"

#include "obs/obs.hpp"

namespace memfss::fs {

bool HealthRegistry::allow(NodeId n, SimTime now) {
  if (!enabled()) return true;
  return breakers_[n].allow(cfg_, now);
}

void HealthRegistry::record(NodeId n, Errc code, SimTime now) {
  if (!enabled()) return;
  const bool fault = code != Errc::ok && errc_health_fault(code);
  if (breakers_[n].record(cfg_, fault, now)) {
    ++opens_;
    if (obs_) {
      obs_->metrics.counter("fs.breaker.opens").inc();
      if (obs_->tracer.enabled(obs::Component::fs))
        obs_->tracer.instant(obs::Component::fs, n, "fs.breaker.open",
                             std::string(errc_name(code)));
    }
  }
}

BreakerState HealthRegistry::state(NodeId n) const {
  auto it = breakers_.find(n);
  return it == breakers_.end() ? BreakerState::closed : it->second.state();
}

void HealthRegistry::reset() {
  breakers_.clear();
  opens_ = 0;
  rejections_ = 0;
}

}  // namespace memfss::fs
