// The benchmark's workloads. Each run function drives one stack through
// its public API only and times the calls into each layer itself.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< traced run: where the Chrome trace goes
};

struct RunOutput {
  Tally tally;
  std::vector<Metric> metrics;
  SpanLog spans;             ///< traced run only
  std::string extra_events;  ///< traced run: simulator tracer events
};

/// Client threads + reactors + workers the kv workloads use, and their
/// connection count; main() refuses to run if either exceeds nproc.
inline constexpr std::size_t kKvClientThreads = 1;
inline constexpr std::size_t kKvReactors = 1;
inline constexpr std::size_t kKvWorkers = 2;
inline constexpr std::size_t kKvConnections = 4;

bool is_kv_workload(const std::string& name);

/// kv_small / kv_ec_large.
void run_kv(const RunConfig& cfg, RunOutput& out);
/// sim_montage_faults.
void run_sim(const RunConfig& cfg, RunOutput& out);

/// Per-layer metrics of one stack measured at its reference workload
/// (kv_small / sim_montage_faults), so that the traced run of every
/// workload reports every layer.
void kv_layer_metrics(std::uint64_t seed, double seconds, RunOutput& out);
void sim_layer_metrics(std::uint64_t seed, RunOutput& out);

}  // namespace perfbench
