// Closed-loop load generator for the concurrent runtime (src/rt) --
// memtier-style CLI over rt::run_loadgen.
//
// With no arguments it runs the thread-scaling sweep from EXPERIMENTS.md
// ("Concurrent runtime"): the same total op count at 1, 2, 4 and 8
// client+server threads over 16 shards with a 200us simulated
// remote-access service time per op (the latency-bound regime a
// disaggregated deployment lives in), prints one CSV row per point, and
// reports the 8-vs-1-thread speedup on stderr. A single run with
// explicit parameters:
//
//   loadgen --threads N [--server-threads N] [--shards N] [--ops N]
//           [--batch N] [--value-size BYTES] [--get-ratio F] [--del-ratio F]
//           [--skew THETA] [--keys N] [--service-us U] [--seed S]
//
// --qos runs the multi-tenant adversarial isolation scenario instead
// (DESIGN.md §12): N small under-quota tenants plus one abusive tenant,
// run once without and once with the abuser. Prints one per-tenant CSV
// row per scenario (rt::qos_csv_header()), a summary on stderr, and
// exits 1 if isolation breaks: small-tenant p99 degrades past
// --isolation-factor, the abuser is shed by queue-full rejections
// instead of Errc::overloaded, or any accounting invariant trips.
//
//   loadgen --qos [--tenants N] [--seed S] [--isolation-factor F]
//
// --net switches the same driver to its socket transport: the same
// seed-deterministic streams replayed over loopback TCP against an
// rt::TcpServer (DESIGN.md §13), N client threads x M pipelined
// connections each, with request-id accounting. It runs --seeds S seeds
// (default 3), one CSV row per seed.
//
//   loadgen --net [--threads N] [--connections M] [--reactors R]
//           [--ops N] [--seeds S] [--min-ops-per-sec F] [...stream flags]
//
// Every in-process and socket run is held to the same gate: exit 1 if
// any op goes unanswered, any response is duplicated, any transport
// error occurs, or throughput lands under --min-ops-per-sec.
//
// --netchaos runs the network chaos soak (DESIGN.md §15): the same
// streams through a netio::ChaosProxy injecting resets, blackholes,
// torn frames, corruption and delays, replayed by resilient clients.
// Per seed it runs a faulted arm and a clean arm (proxy in the path,
// faults off) and exits 1 if any acked op is lost or duplicated, any
// read escapes the possibility model, accounting breaks, the clean
// arm's digest differs from the in-process replay, or the faulted arm
// injected no faults at all (a vacuous pass).
//
//   loadgen --netchaos [--threads N] [--ops N] [--seeds S] [--seed S]
//
// CSV schema: see rt::loadgen_csv_header() (one schema for both
// transports; connections_per_thread 0 marks an in-process row),
// rt::net_chaos_csv_header() and EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rt/loadgen.hpp"
#include "rt/net_chaos.hpp"

using namespace memfss;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--threads N] [--server-threads N] [--shards N]\n"
               "          [--ops N] [--batch N>=1] [--value-size BYTES]\n"
               "          [--get-ratio F] [--del-ratio F] [--skew THETA]\n"
               "          [--keys N] [--service-us U] [--seed S]\n"
               "       %s --qos [--tenants N] [--seed S] [--isolation-factor F]\n"
               "       %s --net [--connections M] [--reactors R] [--seeds S]\n"
               "          [--min-ops-per-sec F] [...single-run flags]\n"
               "       %s --netchaos [--threads N] [--ops N] [--seeds S] [--seed S]\n"
               "With no arguments: thread-scaling sweep (1,2,4,8).\n",
               argv0, argv0, argv0, argv0);
}

/// The accounting gate every loadgen run is held to, in process or over
/// the socket: every op answered exactly once, no transport error, and
/// throughput at or above the floor.
bool accounted(const rt::LoadgenResult& r, double min_ops_per_sec) {
  bool ok = true;
  const std::uint64_t total = static_cast<std::uint64_t>(
      r.opt.client_threads) * r.opt.stream.ops_per_thread;
  const auto seed = static_cast<unsigned long long>(r.opt.stream.seed);
  if (r.lost != 0 || r.duplicated != 0 || r.transport_errors != 0 ||
      r.responses != total) {
    std::fprintf(stderr,
                 "loadgen: FAIL seed %llu accounting: %llu/%llu answered, "
                 "%llu lost, %llu duplicated, %llu transport errors\n",
                 seed, static_cast<unsigned long long>(r.responses),
                 static_cast<unsigned long long>(total),
                 static_cast<unsigned long long>(r.lost),
                 static_cast<unsigned long long>(r.duplicated),
                 static_cast<unsigned long long>(r.transport_errors));
    ok = false;
  }
  if (min_ops_per_sec > 0.0 && r.ops_per_sec < min_ops_per_sec) {
    std::fprintf(stderr, "loadgen: FAIL seed %llu throughput %.0f < floor %.0f\n",
                 seed, r.ops_per_sec, min_ops_per_sec);
    ok = false;
  }
  return ok;
}

int run_seeds(const rt::LoadgenOptions& opt, std::size_t seeds,
              double min_ops_per_sec) {
  std::printf("%s\n", rt::loadgen_csv_header().c_str());
  bool ok = true;
  for (std::size_t s = 0; s < seeds; ++s) {
    rt::LoadgenOptions o = opt;
    o.stream.seed = opt.stream.seed + s;
    const auto r = rt::run_loadgen(o);
    std::printf("%s\n", rt::loadgen_csv_row(r).c_str());
    std::fflush(stdout);
    ok = accounted(r, min_ops_per_sec) && ok;
  }
  if (ok && opt.connections_per_thread > 0)
    std::fprintf(stderr, "net: OK (%zu seeds, zero lost/duplicated)\n", seeds);
  return ok ? 0 : 1;
}

int run_netchaos(rt::NetChaosOptions base, std::size_t seeds) {
  std::printf("%s\n", rt::net_chaos_csv_header().c_str());
  bool ok = true;
  for (std::size_t s = 0; s < seeds; ++s) {
    for (const bool faults : {true, false}) {
      rt::NetChaosOptions o = base;
      o.seed = base.seed + s;
      o.faults = faults;
      o.plan = netio::ChaosPlan::faulty(o.seed);
      const auto r = rt::run_net_chaos(o);
      std::printf("%s\n", rt::net_chaos_csv_row(r).c_str());
      std::fflush(stdout);
      const char* arm = faults ? "faulted" : "clean";
      if (!r.passed) {
        std::fprintf(stderr, "netchaos: FAIL seed %llu (%s arm): %s\n",
                     static_cast<unsigned long long>(o.seed), arm,
                     r.fail_reason.c_str());
        ok = false;
      }
      // A faulted arm that injected nothing proves nothing.
      const std::uint64_t injected = r.chaos.resets_injected +
                                     r.chaos.blackholed +
                                     r.chaos.chunks_corrupted +
                                     r.chaos.chunks_torn;
      if (faults && injected == 0) {
        std::fprintf(stderr,
                     "netchaos: FAIL seed %llu: no faults fired (vacuous)\n",
                     static_cast<unsigned long long>(o.seed));
        ok = false;
      }
      std::fprintf(stderr,
                   "netchaos: seed %llu %s: %llu/%llu acked, %llu retries, "
                   "%llu reconnects, %llu resets, %llu corrupt, p99 %.2fms\n",
                   static_cast<unsigned long long>(o.seed), arm,
                   static_cast<unsigned long long>(r.acked),
                   static_cast<unsigned long long>(r.calls),
                   static_cast<unsigned long long>(r.retries),
                   static_cast<unsigned long long>(r.reconnects),
                   static_cast<unsigned long long>(r.chaos.resets_injected),
                   static_cast<unsigned long long>(r.chaos.chunks_corrupted),
                   r.call_latency.p99 * 1e3);
    }
  }
  if (ok)
    std::fprintf(stderr,
                 "netchaos: OK (%zu seeds x 2 arms, zero lost/duplicated "
                 "acked ops)\n",
                 seeds);
  return ok ? 0 : 1;
}

int run_qos(std::size_t tenants, std::uint64_t seed, double factor) {
  const auto opt = rt::default_qos_options(tenants, seed);
  const auto sc = rt::run_qos_adversarial(opt);

  std::printf("%s\n", rt::qos_csv_header().c_str());
  for (const auto& tr : sc.baseline.tenants)
    std::printf("%s\n", rt::qos_csv_row("baseline", tr).c_str());
  for (const auto& tr : sc.adversarial.tenants) {
    double iso = 0.0;
    for (const auto& base : sc.baseline.tenants)
      if (base.name == tr.name && base.latency.p99 > 0.0)
        iso = tr.latency.p99 / base.latency.p99;
    std::printf("%s\n", rt::qos_csv_row("adversarial", tr, iso).c_str());
  }
  std::fflush(stdout);

  bool ok = true;
  std::fprintf(stderr, "qos: worst small-tenant p99 isolation: %.2fx (limit %.2fx)\n",
               sc.worst_isolation, factor);
  if (sc.worst_isolation > factor) {
    std::fprintf(stderr, "qos: FAIL isolation factor exceeded\n");
    ok = false;
  }
  if (!sc.abuser_shed_via_overload) {
    std::fprintf(stderr, "qos: FAIL abuser not shed via Errc::overloaded\n");
    ok = false;
  }
  for (const auto* run : {&sc.baseline, &sc.adversarial})
    if (!run->accounting_ok) {
      std::fprintf(stderr, "qos: FAIL accounting: %s\n",
                   run->accounting_msg.c_str());
      ok = false;
    }
  if (ok) std::fprintf(stderr, "qos: OK\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  rt::LoadgenOptions opt;
  opt.service_time_us = 200;
  opt.value_size = 1024;
  opt.stream.get_fraction = 0.5;
  bool single = false;
  bool qos = false;
  bool net = false;
  bool netchaos = false;
  std::size_t qos_tenants = 8;
  double isolation_factor = 5.0;
  std::size_t net_connections = 2;
  std::size_t net_reactors = 2;
  std::size_t net_seeds = 3;
  double min_ops_per_sec = 0.0;

  for (int i = 1; i < argc; ++i) {
    auto want = [&](const char* flag) {
      if (std::strcmp(argv[i], flag) != 0) return false;
      if (i + 1 >= argc) { usage(argv[0]); std::exit(2); }
      return true;
    };
    if (std::strcmp(argv[i], "--qos") == 0) { qos = true; }
    else if (std::strcmp(argv[i], "--net") == 0) { net = true; }
    else if (std::strcmp(argv[i], "--netchaos") == 0) { netchaos = true; }
    else if (want("--connections")) { net_connections = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--reactors")) { net_reactors = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--seeds")) { net_seeds = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--min-ops-per-sec")) { min_ops_per_sec = std::strtod(argv[++i], nullptr); }
    else if (want("--tenants")) { qos_tenants = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--isolation-factor")) { isolation_factor = std::strtod(argv[++i], nullptr); }
    else if (want("--threads")) { opt.client_threads = std::strtoul(argv[++i], nullptr, 10); opt.server_threads = opt.client_threads; single = true; }
    else if (want("--server-threads")) { opt.server_threads = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--shards")) { opt.shards = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--ops")) { opt.stream.ops_per_thread = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--batch")) {
      opt.batch = std::strtoul(argv[++i], nullptr, 10);
      if (opt.batch == 0) { usage(argv[0]); return 2; }
    }
    else if (want("--value-size")) { opt.value_size = std::strtoull(argv[++i], nullptr, 10); }
    else if (want("--get-ratio")) { opt.stream.get_fraction = std::strtod(argv[++i], nullptr); }
    else if (want("--del-ratio")) { opt.stream.del_fraction = std::strtod(argv[++i], nullptr); }
    else if (want("--skew")) { opt.stream.zipf_theta = std::strtod(argv[++i], nullptr); }
    else if (want("--keys")) { opt.stream.key_space = std::strtoul(argv[++i], nullptr, 10); }
    else if (want("--service-us")) { opt.service_time_us = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10)); }
    else if (want("--seed")) { opt.stream.seed = std::strtoull(argv[++i], nullptr, 10); }
    else { usage(argv[0]); return 2; }
  }

  if (qos) return run_qos(qos_tenants, opt.stream.seed, isolation_factor);
  if (netchaos) {
    rt::NetChaosOptions copt;
    copt.seed = opt.stream.seed;
    if (single) {
      copt.client_threads = opt.client_threads;
      copt.server_threads = opt.server_threads;
    }
    if (opt.stream.ops_per_thread != rt::StreamOptions{}.ops_per_thread)
      copt.ops_per_thread = opt.stream.ops_per_thread;
    copt.reactors = net_reactors;
    return run_netchaos(copt, net_seeds);
  }
  if (net) {
    opt.connections_per_thread = std::max<std::size_t>(1, net_connections);
    opt.reactors = net_reactors;
    return run_seeds(opt, net_seeds, min_ops_per_sec);
  }
  if (single) return run_seeds(opt, 1, min_ops_per_sec);

  std::printf("%s\n", rt::loadgen_csv_header().c_str());

  // Sweep: fixed total work (16k ops) redistributed over the thread
  // counts so every point does the same job.
  const std::size_t total_ops = 16384;
  double ops_1 = 0.0, ops_8 = 0.0;
  bool ok = true;
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    rt::LoadgenOptions o = opt;
    o.client_threads = n;
    o.server_threads = n;
    o.stream.ops_per_thread = total_ops / n;
    const auto r = rt::run_loadgen(o);
    std::printf("%s\n", rt::loadgen_csv_row(r).c_str());
    std::fflush(stdout);
    ok = accounted(r, min_ops_per_sec) && ok;
    if (n == 1) ops_1 = r.ops_per_sec;
    if (n == 8) ops_8 = r.ops_per_sec;
  }
  const double speedup = ops_1 > 0.0 ? ops_8 / ops_1 : 0.0;
  std::fprintf(stderr, "loadgen: 8-thread vs 1-thread throughput: %.2fx\n",
               speedup);
  return ok ? 0 : 1;
}
