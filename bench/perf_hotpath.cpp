// Hot-path performance harness: the simulator's three inner loops.
//
// Micro benches:
//   - fabric.recompute_per_sec_f<N>: one full max-min water-filling pass
//     over N concurrent flows (the cost every flow arrival/completion
//     pays), N swept 10^2..10^5;
//   - placement.places_per_sec: two-layer class-HRW placements through the
//     policy facade, stripe keys in the namespace's canonical form;
//   - sim.events_per_sec: schedule+dispatch throughput of the event loop
//     under the self-rescheduling-chain pattern every coroutine uses.
//
// Macro bench:
//   - fig2_ddbag.wall_clock_sec: a fig2-shaped dd bag (scaled-down Fig. 2
//     point: own+victim cluster, alpha=0.25, dd tasks writing striped
//     files) timed end-to-end in host wall-clock.
//
// Byte-pump benches (DESIGN.md §14 -- the SIMD-dispatched hot loops):
//   - erasure.rs_encode_GBps / rs_decode_loss_GBps: RS(8, 3) over a 1 MiB
//     payload on the active GF(2^8) kernel, plus *_scalar variants pinned
//     to the portable backend (the dispatch win is the ratio between the
//     two); decode runs with data shards {0, 2} and parity {9} lost, so it
//     pays matrix inversion + reconstruction every stripe.
//   - hash.content_checksum_GBps: hash::content_checksum over a 64 KiB
//     value, the checksum every stored value, EC sibling and GET
//     verification pays.
//
// Served-path benches (DESIGN.md §13-14 -- the per-byte costs of one
// large-value request on a worker):
//   - frame.body_checksum_GBps: netio::body_checksum over a 64 KiB body,
//     the integrity sum every frame encode and decode pays;
//   - rt_ec.ec_put_us / ec_get_us: median latency of one rt::ec::put /
//     ec::get of a 64 KiB value under RS(4,2), over a ShardedStore whose
//     resident stripes (2048 keys, ~192 MiB) exceed the last-level cache.
//
// Output: BENCH_hotpath.json (or $MEMFSS_BENCH_OUT) with rows of
//   {"bench", "metric", "value", "unit", "seed"}
// -- the schema scripts/bench_perf.sh commits at the repo root so future
// PRs have a perf trajectory, and scripts/check.sh --perf regresses
// against. Wall-clock numbers are machine-dependent; the trajectory is
// only meaningful within one machine, which is why the committed file is
// regenerated (baseline rows preserved) rather than diffed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "erasure/gf256_simd.hpp"
#include "erasure/reed_solomon.hpp"
#include "exp/experiments.hpp"
#include "fs/namespace.hpp"
#include "fs/placement.hpp"
#include "hash/hashes.hpp"
#include "net/fabric.hpp"
#include "netio/frame.hpp"
#include "rt/ec.hpp"
#include "rt/sharded_store.hpp"
#include "sim/simulator.hpp"

using namespace memfss;

namespace {

constexpr std::uint64_t kSeed = 42;

struct Row {
  std::string bench, metric;
  double value = 0.0;
  std::string unit;
  std::uint64_t seed = kSeed;
};

std::vector<Row> g_rows;

void emit(const std::string& bench, const std::string& metric, double value,
          const std::string& unit) {
  g_rows.push_back({bench, metric, value, unit, kSeed});
  std::printf("  %-14s %-28s %14.1f %s\n", bench.c_str(), metric.c_str(),
              value, unit.c_str());
}

double now_sec() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

// --- fabric: water-filling recompute cost vs. concurrent flow count ---------

sim::Task<> hold_flow(net::Fabric& fab, NodeId src, NodeId dst, Rate cap,
                      net::CapGroup* grp) {
  // Effectively-infinite flows: the bench measures recompute cost at a
  // fixed population, not completions.
  co_await fab.transfer(src, dst, Bytes{1} << 50, cap, grp);
}

void bench_fabric(std::size_t flows) {
  const std::size_t nodes = 64;
  sim::Simulator sim;
  net::Fabric fab(sim, nodes, net::NicSpec{});
  // One shared ceiling per "victim" destination, like the container caps
  // of scavenged stores: exercises the group-constraint path.
  std::vector<std::unique_ptr<net::CapGroup>> groups;
  for (std::size_t g = 0; g < 8; ++g)
    groups.push_back(std::make_unique<net::CapGroup>(500e6));
  Rng rng(kSeed);
  for (std::size_t i = 0; i < flows; ++i) {
    const NodeId src = static_cast<NodeId>(rng.uniform_u64(0, 31));
    const NodeId dst = static_cast<NodeId>(rng.uniform_u64(32, 63));
    net::CapGroup* grp =
        (dst % 8 < 4) ? groups[dst % groups.size()].get() : nullptr;
    sim.spawn(hold_flow(fab, src, dst, net::Fabric::kUncapped, grp));
  }
  sim.run_until(1.0);  // all arrivals processed, nothing completes
  if (fab.active_flows() != flows) {
    std::fprintf(stderr, "fabric bench: %zu flows active, expected %zu\n",
                 fab.active_flows(), flows);
    std::exit(1);
  }
  // set_nic forces settle+recompute: exactly the per-event hot path.
  const std::size_t reps = flows >= 50000 ? 20 : (flows >= 5000 ? 100 : 400);
  const double t0 = now_sec();
  for (std::size_t r = 0; r < reps; ++r) fab.set_nic(0, net::NicSpec{});
  const double dt = now_sec() - t0;
  emit("fabric", "recompute_per_sec_f" + std::to_string(flows),
       static_cast<double>(reps) / dt, "recompute/s");
}

// --- placement: class-HRW placements/sec ------------------------------------

void bench_placement() {
  fs::ClassMembership members;
  std::vector<NodeId> own, victims;
  for (NodeId n = 0; n < 8; ++n) own.push_back(n);
  for (NodeId n = 8; n < 40; ++n) victims.push_back(n);
  members.set_members(0, own);
  members.set_members(1, victims);
  fs::PlacementEpoch epoch;
  epoch.id = 1;
  epoch.weights = {{0, 0.42}, {1, 0.0}};
  fs::ClassHrwPolicy policy(epoch, members);

  const std::size_t n = 200000;
  volatile NodeId sink = 0;
  double t0 = now_sec();
  for (std::size_t i = 0; i < n; ++i) {
    const auto nodes = policy.place(fs::Namespace::stripe_key(7, i), 2);
    sink = nodes[0];
  }
  double dt = now_sec() - t0;
  (void)sink;
  emit("placement", "places_per_sec", static_cast<double>(n) / dt, "place/s");

  t0 = now_sec();
  for (std::size_t i = 0; i < n; ++i) {
    const auto nodes =
        policy.place(fs::Namespace::stripe_key_digest(7, i), 2);
    sink = nodes[0];
  }
  dt = now_sec() - t0;
  emit("placement", "places_digest_per_sec", static_cast<double>(n) / dt,
       "place/s");
}

// --- simulator: event loop throughput ----------------------------------------

void bench_simulator() {
  sim::Simulator sim;
  const std::uint64_t total = 2000000;
  const std::size_t chains = 64;
  std::uint64_t remaining = total;
  std::function<void()> tick;  // self-rescheduling: the coroutine pattern
  tick = [&] {
    if (remaining > 0) {
      --remaining;
      sim.schedule(1e-7, tick);
    }
  };
  const double t0 = now_sec();
  for (std::size_t c = 0; c < chains; ++c) sim.schedule(0.0, tick);
  sim.run();
  const double dt = now_sec() - t0;
  emit("sim", "events_per_sec",
       static_cast<double>(sim.executed_events()) / dt, "event/s");
}

// --- erasure: Reed-Solomon stripe coding GB/s --------------------------------

void bench_erasure_kernel(const char* suffix,
                          const erasure::GF256Kernels* kernels) {
  const std::size_t k = 8, m = 3;
  const erasure::ReedSolomon rs(k, m, kernels);
  Rng rng(kSeed);
  std::vector<std::uint8_t> data(1 << 20);
  for (auto& b : data) b = std::uint8_t(rng.next_u64());

  // Encode into a caller-owned arena: the shape ec::put uses, so the
  // number is pure coding cost, not allocator traffic.
  const std::size_t ss = rs.shard_size(data.size());
  std::vector<std::uint8_t> arena((k + m) * ss);
  std::vector<std::uint8_t*> ptrs(k + m);
  for (std::size_t i = 0; i < k + m; ++i) ptrs[i] = arena.data() + i * ss;
  std::size_t reps = 4;
  double dt = 0.0;
  do {  // grow reps until the sample is long enough to trust
    reps *= 2;
    const double t0 = now_sec();
    for (std::size_t r = 0; r < reps; ++r)
      if (!rs.encode_into(data, ptrs.data(), ss).ok()) std::exit(1);
    dt = now_sec() - t0;
  } while (dt < 0.2);
  emit("erasure", std::string("rs_encode") + suffix + "_GBps",
       static_cast<double>(reps) * static_cast<double>(data.size()) / dt / 1e9,
       "GB/s");

  // Decode with losses straddling data and parity: shards 0 and 2 (data)
  // and 9 (parity) gone, the worst-case repair read.
  auto lossy = rs.encode(data);
  lossy[0].clear();
  lossy[2].clear();
  lossy[9].clear();
  reps = 2;
  do {
    reps *= 2;
    const double t0 = now_sec();
    for (std::size_t r = 0; r < reps; ++r) {
      auto dec = rs.decode(lossy, data.size());
      if (!dec.ok()) std::exit(1);
    }
    dt = now_sec() - t0;
  } while (dt < 0.2);
  emit("erasure", std::string("rs_decode_loss") + suffix + "_GBps",
       static_cast<double>(reps) * static_cast<double>(data.size()) / dt / 1e9,
       "GB/s");
}

void bench_erasure() {
  bench_erasure_kernel("", nullptr);  // active (dispatched) kernel
  bench_erasure_kernel("_scalar", erasure::gf256_kernels_by_name("scalar"));
}

// --- hash: value content checksum GB/s ---------------------------------------

void bench_content_checksum() {
  Rng rng(kSeed);
  std::vector<std::uint8_t> value(64 * 1024);
  for (auto& b : value) b = std::uint8_t(rng.next_u64());
  std::size_t reps = 64;
  double dt = 0.0;
  std::uint64_t sum = 0;
  do {
    reps *= 2;
    const double t0 = now_sec();
    for (std::size_t r = 0; r < reps; ++r)
      sum += hash::content_checksum(
          std::span(value).first(value.size() - (r & 1)));
    dt = now_sec() - t0;
  } while (dt < 0.2);
  volatile std::uint64_t sink = sum;
  (void)sink;
  emit("hash", "content_checksum_GBps",
       static_cast<double>(reps) * static_cast<double>(value.size()) / dt /
           1e9,
       "GB/s");
}

// --- frame: wire integrity checksum GB/s -------------------------------------

void bench_frame() {
  Rng rng(kSeed);
  std::vector<std::uint8_t> body(64 * 1024);
  for (auto& b : body) b = std::uint8_t(rng.next_u64());
  std::size_t reps = 64;
  double dt = 0.0;
  unsigned sum = 0;
  do {
    reps *= 2;
    const double t0 = now_sec();
    for (std::size_t r = 0; r < reps; ++r)
      sum += netio::body_checksum(body.data(), body.size() - (r & 1));
    dt = now_sec() - t0;
  } while (dt < 0.2);
  volatile unsigned sink = sum;
  (void)sink;
  emit("frame", "body_checksum_GBps",
       static_cast<double>(reps) * static_cast<double>(body.size()) / dt / 1e9,
       "GB/s");
}

// --- rt_ec: erasure-coded put/get latency ------------------------------------

double median_us(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

void bench_rt_ec() {
  // 2048 keys x 64 KiB x 1.5 (RS(4,2) overhead) = 192 MiB of resident
  // siblings: gets and overwrites miss the last-level cache, as they do
  // on a loaded server. Values come from a small pool of pre-hashed
  // blobs, the way the reactor hands them to a worker.
  constexpr std::size_t kKeys = 2048;
  constexpr std::size_t kValue = 64 * 1024;
  const std::string token = "tok";
  rt::ShardedStore store({16, Bytes{512} * units::MiB, token, nullptr});
  const erasure::ReedSolomon rs(4, 2);
  Rng rng(kSeed);
  std::vector<kvstore::Blob> values;
  for (std::size_t i = 0; i < 16; ++i) {
    std::vector<std::uint8_t> v(kValue);
    for (auto& b : v) b = std::uint8_t(rng.next_u64());
    values.push_back(kvstore::Blob::materialized(std::move(v)));
  }
  std::vector<std::string> keys;
  for (std::size_t k = 0; k < kKeys; ++k)
    keys.push_back("ec-bench-key-" + std::to_string(k));
  auto put = [&](std::size_t k, std::size_t v) {
    if (!rt::ec::put(store, token, keys[k], values[v % values.size()], rs)
             .ok()) {
      std::fprintf(stderr, "rt_ec bench: put %zu failed\n", k);
      std::exit(1);
    }
  };
  for (std::size_t k = 0; k < kKeys; ++k) put(k, k);  // populate, untimed

  std::vector<double> put_us, get_us;
  for (std::size_t k = 0; k < kKeys; ++k) {  // overwrite: the steady state
    const double t0 = now_sec();
    put(k, k + 1);
    put_us.push_back((now_sec() - t0) * 1e6);
  }
  for (std::size_t k = 0; k < kKeys; ++k) {
    const double t0 = now_sec();
    auto got = rt::ec::get(store, token, keys[k]);
    get_us.push_back((now_sec() - t0) * 1e6);
    if (!got.ok() ||
        got.value().checksum() != values[(k + 1) % values.size()].checksum()) {
      std::fprintf(stderr, "rt_ec bench: get %zu returned a wrong value\n",
                   k);
      std::exit(1);
    }
  }
  emit("rt_ec", "ec_put_us", median_us(put_us), "us");
  emit("rt_ec", "ec_get_us", median_us(get_us), "us");
}

// --- macro: fig2-shaped dd bag -----------------------------------------------

void bench_fig2_ddbag() {
  exp::Fig2Options opt;
  opt.dd_tasks = 2048;              // paper-scale Fig. 2 point: a dd bag
  opt.dd_bytes = 128 * units::MiB;  // striped over own+victim nodes
  const double t0 = now_sec();
  const auto row = exp::run_fig2(0.25, opt);
  const double dt = now_sec() - t0;
  emit("fig2_ddbag", "wall_clock_sec", dt, "s");
  emit("fig2_ddbag", "sim_runtime_sec", row.runtime, "sim-s");
}

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "  {\"bench\": \"%s\", \"metric\": \"%s\", \"value\": %.6g, "
                 "\"unit\": \"%s\", \"seed\": %llu}%s\n",
                 r.bench.c_str(), r.metric.c_str(), r.value, r.unit.c_str(),
                 (unsigned long long)r.seed,
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("(wrote %s)\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : std::getenv("MEMFSS_BENCH_OUT");
  if (!out) out = "BENCH_hotpath.json";
  std::printf("perf_hotpath: seed=%llu gf256_kernel=%s\n",
              (unsigned long long)kSeed, erasure::gf256_kernel_name());

  for (std::size_t flows : {100, 1000, 10000, 100000})
    bench_fabric(flows);
  bench_placement();
  bench_simulator();
  bench_erasure();
  bench_content_checksum();
  bench_frame();
  bench_rt_ec();
  bench_fig2_ddbag();
  write_json(out);
  return 0;
}
