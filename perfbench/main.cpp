// perfbench: one run of one workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints an environment header, progress lines, and as its last line
// the result object {"correct","attempted","failed","metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the Chrome trace goes to --trace-out.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "erasure/gf256_simd.hpp"

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<kv_small|kv_ec_large|sim_montage_faults> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], val = argv[i + 1];
    if (flag == "--workload") cfg.workload = val;
    else if (flag == "--seed")
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (flag == "--seconds") cfg.seconds = std::atof(val.c_str());
    else if (flag == "--trace") cfg.trace = val == "1";
    else if (flag == "--trace-out") cfg.trace_path = val;
    else return usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  const bool kv = is_kv_workload(cfg.workload);
  if (!kv && cfg.workload != "sim_montage_faults")
    return usage(("unknown workload '" + cfg.workload + "'").c_str());
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  if (cfg.trace && cfg.trace_path.empty())
    return usage("--trace 1 needs --trace-out");

  // Thread budget: the kv stack's client threads, reactors and workers
  // together, and its connections, each stay within nproc; so do the
  // three threads of the traced run's MetricsSink probe.
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const std::size_t kv_threads = kKvClientThreads + kKvReactors + kKvWorkers;
  const bool probes_kv = kv || cfg.trace;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);
  std::printf("# nproc=%ld cpu=\"%s\" build=%s gf256=%s\n", nproc,
              cpu_model().c_str(), PERFBENCH_BUILD_TYPE,
              memfss::erasure::gf256_kernel_name());
  if (probes_kv)
    std::printf("# kv threads: client=%zu reactors=%zu workers=%zu "
                "connections=%zu\n",
                kKvClientThreads, kKvReactors, kKvWorkers, kKvConnections);
  else
    std::printf("# sim threads: 1 (single-threaded event loop)\n");
  if (probes_kv && (static_cast<long>(kv_threads) > nproc ||
                    static_cast<long>(kKvConnections) > nproc || nproc < 3)) {
    std::fprintf(stderr,
                 "perfbench: %zu threads / %zu connections exceed nproc=%ld\n",
                 kv_threads, kKvConnections, nproc);
    return 3;
  }
  std::fflush(stdout);

  RunOutput out;
  if (kv) run_kv(cfg, out);
  else run_sim(cfg, out);

  if (cfg.trace) {
    // Every traced run reports every layer: the stack the workload does
    // not drive is measured at its reference workload.
    if (kv) sim_layer_metrics(cfg.seed, out);
    else kv_layer_metrics(cfg.seed, cfg.seconds / 4, out);
    out.metrics.push_back(
        {"trace.spans", static_cast<double>(out.spans.size()), "count"});
    std::printf("# self time per span (us):\n");
    for (const auto& [name, us] : out.spans.self_time_us())
      std::printf("#   %-28s %14.1f\n", name.c_str(), us);
    std::ofstream f(cfg.trace_path, std::ios::binary | std::ios::trunc);
    f << out.spans.chrome_json(out.extra_events);
    if (!f.good()) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   cfg.trace_path.c_str());
      return 4;
    }
    std::printf("# trace: %s (%zu host spans)\n", cfg.trace_path.c_str(),
                out.spans.size());
  } else {
    out.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  }
  for (const auto& [why, n] : out.tally.failures())
    std::printf("# failed: %s x%llu\n", why.c_str(),
                static_cast<unsigned long long>(n));
  for (const auto& p : out.tally.problems())
    std::printf("# INCORRECT: %s\n", p.c_str());
  std::printf("%s\n", result_json(out.tally, out.metrics).c_str());
  return 0;
}
