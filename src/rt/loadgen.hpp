// Closed-loop load generator for the concurrent runtime (memtier
// style): N client threads each replay a seed-deterministic op stream
// against a RuntimeServer, in batches, waiting for every batch before
// issuing the next. Key popularity is uniform or Zipf-skewed, the
// get:put:del mix and value size are configurable, and results come
// back as one CSV row compatible with the other benches.
//
// One driver, two transports, chosen by `connections_per_thread`:
//
//   0   in process: each batch is one RuntimeServer::run_batch call;
//   >=1 over loopback TCP: a TcpServer in front of the same runtime,
//       with that many pipelined NetClient connections per client
//       thread and per-request-id accounting, so a lost or duplicated
//       response is a hard failure, not noise (DESIGN.md §13).
//
// Everything but the batch step -- server setup, stream generation,
// the per-thread tally, the result-code switch, the digest and the CSV
// row -- is shared, so the two transports differ in nothing else.
//
// Op streams are generated up front by rt::generate_stream, a pure
// function of (opt.stream, thread index), so a fixed seed replays the
// identical stream every run. With one client thread, one worker thread
// and (over the socket) one connection, the *execution* order is the
// generation order too: `result_digest` then repeats run to run and is
// equal across the two transports, which tests/test_rt_loadgen.cpp and
// tests/test_rt_tcp.cpp pin down.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/histogram.hpp"
#include "rt/opstream.hpp"
#include "rt/server.hpp"

namespace memfss::rt {

struct LoadgenOptions {
  StreamOptions stream;             ///< seed, length, mix, skew, keys
  std::size_t client_threads = 1;   ///< closed-loop submitters
  std::size_t server_threads = 1;   ///< RuntimeServer workers
  std::size_t shards = 16;
  std::size_t batch = 16;           ///< ops in flight per client (0 runs 1)
  Bytes value_size = 1024;          ///< materialized payload bytes
  Bytes capacity = 256 * units::MiB;
  std::size_t queue_capacity = 4096;
  std::uint32_t service_time_us = 0;  ///< simulated remote-access latency
  std::string auth_token = "rt";
  /// 0 = in-process run_batch; >= 1 = a TcpServer and this many
  /// pipelined connections per client thread.
  std::size_t connections_per_thread = 0;
  std::size_t reactors = 1;         ///< TcpServer epoll threads (socket only)
};

struct LoadgenResult {
  LoadgenOptions opt;
  std::uint64_t puts = 0;      ///< ok puts
  std::uint64_t gets = 0;      ///< ok gets (hits)
  std::uint64_t dels = 0;      ///< ok dels
  std::uint64_t not_found = 0; ///< clean misses (get/del on absent key)
  std::uint64_t rejected = 0;  ///< backpressure rejections (queue full)
  std::uint64_t overloaded = 0;  ///< QoS sheds (rate limit / pressure)
  std::uint64_t retry_after_hints = 0;  ///< overloaded results with a hint
  std::uint64_t errors = 0;    ///< anything else (oom, auth, ...)
  std::uint64_t responses = 0;   ///< ops answered (matched by request id)
  std::uint64_t lost = 0;        ///< ops never answered (socket only)
  std::uint64_t duplicated = 0;  ///< responses with an unknown/reused id
  std::uint64_t transport_errors = 0;  ///< client send/recv failures
  std::uint64_t bytes_in = 0;    ///< server-side rt.net.bytes_in
  std::uint64_t bytes_out = 0;   ///< server-side rt.net.bytes_out
  double wall_s = 0.0;
  /// Completed ops (puts + gets + dels + not_found + errors) / wall:
  /// queue-full rejections and QoS sheds never ran, so they do not
  /// count as throughput on either transport.
  double ops_per_sec = 0.0;
  /// Per-op submit-to-completion latency over *completed* ops only --
  /// rejected and overloaded ops never reach a worker, so admitting
  /// them into the histogram would fake sub-microsecond "latencies".
  obs::HistogramSummary latency;
  /// FNV-1a over every answered (op type, key index, result code, get
  /// checksum) in submission order, folded per thread then combined in
  /// thread order (rt::fold_result, rt::combine_digests). Identical
  /// streams + identical execution order => identical digest.
  std::uint64_t result_digest = 0;
};

LoadgenResult run_loadgen(const LoadgenOptions& opt);

std::string loadgen_csv_header();
std::string loadgen_csv_row(const LoadgenResult& r);

// --- Multi-tenant QoS scenario (DESIGN.md §12) -----------------------
//
// One RuntimeServer shared by N tenants, each with its own priority,
// weight, rate limits, memory quota, and client threads. Normal
// tenants replay a fixed seed-deterministic stream (optionally pacing
// batches to stay under their own quota and honoring retry-after
// hints); an *abusive* tenant cycles its stream flat-out, ignoring
// hints, until every normal tenant has finished. A sampler thread
// checks the cap/accounting invariants (`used() <= capacity()`,
// sum-of-tenant-bytes >= aggregate) continuously, plus exact equality
// after quiesce.

struct QosTenantSpec {
  std::string name = "tenant";
  std::uint32_t priority = 3;       ///< 0 = shed first .. kTopPriority
  std::uint32_t weight = 1;         ///< DWRR share
  double ops_per_s = 0.0;           ///< admission rate (0 = unlimited)
  double ops_burst = 0.0;
  double bytes_per_s = 0.0;
  Bytes memory_quota = 0;           ///< resident bytes (0 = unlimited)
  std::size_t client_threads = 1;
  std::size_t ops_per_thread = 1000;  ///< abusive: stream length, cycled
  std::size_t batch = 2;            ///< ops in flight per client (0 runs 1)
  std::uint32_t pace_us = 0;        ///< sleep between batches
  bool abusive = false;  ///< cycle until others finish; ignore hints
};

struct QosOptions {
  std::vector<QosTenantSpec> tenants;
  std::size_t server_threads = 4;
  std::size_t shards = 16;
  Bytes value_size = 1024;
  double get_fraction = 0.5;
  double del_fraction = 0.0;
  std::size_t key_space = 4096;     ///< per-tenant keys ("<name>:k<i>")
  Bytes capacity = 256 * units::MiB;
  std::size_t queue_capacity = 256;
  std::uint64_t seed = 1;
  std::uint32_t service_time_us = 200;
  std::string auth_token = "rt";
};

struct QosTenantResult {
  std::string name;
  std::uint32_t priority = 0;
  std::uint32_t weight = 0;
  std::uint64_t submitted = 0;  ///< offered ops, shed or not
  std::uint64_t ok = 0;
  std::uint64_t not_found = 0;
  std::uint64_t rejected = 0;    ///< queue-full (Errc::rejected)
  std::uint64_t overloaded = 0;  ///< QoS sheds (Errc::overloaded)
  std::uint64_t retry_after_hints = 0;  ///< sheds carrying a hint > 0
  std::uint64_t errors = 0;
  double ops_per_sec = 0.0;      ///< completed ops / wall
  obs::HistogramSummary latency; ///< completed ops only
};

struct QosRunResult {
  std::vector<QosTenantResult> tenants;  ///< in spec order
  double wall_s = 0.0;
  bool accounting_ok = true;  ///< sampled + quiesce invariants held
  std::string accounting_msg; ///< first violation, when !accounting_ok
};

QosRunResult run_qos_scenario(const QosOptions& opt);

/// The adversarial isolation experiment: run the scenario twice -- once
/// without the abusive tenants (baseline) and once with them -- and
/// compare each normal tenant's p99 against its own baseline.
struct QosScenarioResult {
  QosRunResult baseline;     ///< abusive tenants excluded
  QosRunResult adversarial;  ///< full tenant set
  /// max over normal tenants of p99(adversarial) / p99(baseline).
  double worst_isolation = 0.0;
  /// Abusers were shed by policy (overloaded), not queue-full noise.
  bool abuser_shed_via_overload = false;
};

QosScenarioResult run_qos_adversarial(const QosOptions& opt);

/// The stock adversarial configuration for bench/loadgen --qos and
/// scripts/check.sh --qos: `small` under-quota tenants plus one abusive
/// tenant offered far past its ops/s bucket.
QosOptions default_qos_options(std::size_t small_tenants, std::uint64_t seed);

std::string qos_csv_header();
std::string qos_csv_row(std::string_view scenario, const QosTenantResult& r,
                        double isolation_p99 = 0.0);

}  // namespace memfss::rt
