// sim_montage_faults: Montage on 8 own + 32 victim nodes with RS(4,2)
// stripes, victim crashes, tenant memory pressure and cold tiers,
// driven through exp::Scenario -> workflow -> fs -> kvstore -> net -> sim.
//
// Two known defects shape the fault plan (README.md): each run crashes
// exactly two victims, the most RS(4,2) survives without relying on
// repair, because three or more crashes lose stripes at this commit
// ("fewer than k shards survive"); and stalls are left out, because
// 1 s stalls against the 0.25 s rpc_timeout fail the workflow with
// "rpc timeout".
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>

#include "bench.hpp"
#include "cluster/fault.hpp"
#include "common/rng.hpp"
#include "exp/scenario.hpp"
#include "fs/namespace.hpp"
#include "hash/hashes.hpp"
#include "workflow/engine.hpp"
#include "workflow/generators.hpp"

namespace perfbench {

namespace {

using namespace memfss;

constexpr std::size_t kTiles = 768;  // FaultRecoveryOptions default
constexpr std::size_t kCrashes = 2;  // victims crashed per run
constexpr double kEvictRate = 2.0;   // pressure events per victim
constexpr double kMonitorThreshold = 0.85;
constexpr Bytes kColdTier = 4 * units::GiB;
// Faults land in [0, horizon): 0.6x the clean makespan, the share
// exp::run_fault_recovery auto-scales to, fixed here so a run needs no
// clean reference simulation.
constexpr SimTime kFaultHorizon = 0.6 * 181.0;
/// Faulted runs per seed, on sub-seeds derived from it; their mean
/// smooths the run-to-run swing one fault plan alone gives.
constexpr std::size_t kSubSeeds = 3;

/// Everything a faulted run computes in simulated time. Two runs of one
/// seed must agree exactly.
struct SimStats {
  double makespan_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t stripe_reads = 0, stripe_writes = 0;
  std::uint64_t degraded_reads = 0, retries = 0;
  std::uint64_t stripes_repaired = 0;
  std::uint64_t demotions = 0, promotions = 0, cold_hits = 0;
  std::uint64_t crashes = 0, tasks = 0;
  std::uint64_t net_flows = 0, net_msgs = 0;
  Bytes stored = 0, user_bytes = 0;
  bool operator==(const SimStats&) const = default;
};

struct SimRun {
  bool ok = false;
  std::string error;
  SimStats stats;
  obs::Histogram read_lat, write_lat, repair_lat;  // sim seconds
  double setup_s = 0.0, run_s = 0.0;  // host seconds
  double place_ns = 0.0;              // with replay_placement
  std::string trace_doc;              // traced: obs::Tracer chrome JSON
};

sim::Task<> tenant_pressure(exp::Scenario& s, NodeId victim,
                            std::uint64_t seed, std::size_t idx) {
  // Allocate the victim's pool past the monitor threshold at Poisson
  // arrivals, so the reclaim pipeline (demotion on tiered victims)
  // runs under the workflow -- exp::run_fault_recovery's evict_rate.
  auto& sim = s.sim();
  auto& pool = s.cluster().node(victim).memory();
  Rng rng(hash::mix64(seed, 0x9e550000u + idx));
  const double mean_gap = kFaultHorizon / kEvictRate;
  for (double t = rng.exponential(mean_gap); t < kFaultHorizon;
       t += rng.exponential(mean_gap)) {
    if (t > sim.now()) co_await sim.delay(t - sim.now());
    const auto over =
        static_cast<Bytes>(0.95 * static_cast<double>(pool.capacity()));
    if (pool.used() < over) (void)pool.try_alloc(over - pool.used());
  }
}

sim::Task<> run_workflow(workflow::Engine& engine, workflow::Workflow wf,
                         workflow::Report& out) {
  out = co_await engine.run(std::move(wf));
}

/// Mean host nanoseconds of ClassHrwPolicy placement over the stripe
/// keys the run left on its servers.
double replay_placement(exp::Scenario& sc) {
  std::set<std::string> keys;
  auto nodes = sc.own_nodes();
  nodes.insert(nodes.end(), sc.victim_nodes().begin(),
               sc.victim_nodes().end());
  for (const NodeId n : nodes) {
    if (!sc.fs().has_server(n)) continue;
    for (const auto& k : sc.fs().server(n).all_keys())
      if (auto ref = fs::Namespace::parse_stripe_key(k))
        keys.insert(fs::Namespace::stripe_key(ref->inode, ref->stripe));
  }
  if (keys.empty()) return 0.0;
  const auto policy = sc.fs().policy_for_epoch(sc.fs().current_epoch());
  const std::size_t width = sc.fs().config().ec_k + sc.fs().config().ec_m;
  std::size_t placed = 0, sink = 0;
  const auto t0 = Clock::now();
  do {
    for (const auto& k : keys) sink += policy.place(k, width).front();
    placed += keys.size();
  } while (seconds_between(t0, Clock::now()) < 0.05);
  const double ns = seconds_between(t0, Clock::now()) * 1e9 /
                    static_cast<double>(placed);
  return sink == ~std::size_t{0} ? 0.0 : ns;  // keep `sink` observable
}

SimRun simulate(std::uint64_t seed, bool traced, bool with_placement,
                SpanLog* spans) {
  SimRun r;
  const double t_begin = spans ? spans->now_us() : 0.0;
  const auto t0 = Clock::now();

  exp::ScenarioParams p;
  p.redundancy = fs::RedundancyMode::erasure;  // RS(4,2): FileSystemConfig
  p.victim_tier_capacity = kColdTier;
  exp::Scenario sc(p);
  if (traced) sc.cluster().obs().tracer.enable_all(true);
  sc.fs().set_fault_tuning(/*rpc_timeout=*/0.25, /*failure_detect_delay=*/0.2,
                           /*revocation_grace=*/2.0);
  cluster::FaultInjector inj(sc.sim(), sc.cluster());
  sc.fs().attach_fault_injector(inj);
  Rng fault_rng(hash::mix64(seed, 0xfa117));
  cluster::FaultPlan plan;
  std::vector<NodeId> victims = sc.victim_nodes();
  for (std::size_t i = 0; i < kCrashes; ++i) {
    const auto pick = fault_rng.uniform_u64(0, victims.size() - 1);
    plan.crash(fault_rng.next_double() * kFaultHorizon, victims[pick]);
    victims.erase(victims.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  inj.arm(plan);
  sc.fs().arm_victim_monitors(kMonitorThreshold);
  for (std::size_t i = 0; i < sc.victim_nodes().size(); ++i)
    sc.sim().spawn(tenant_pressure(sc, sc.victim_nodes()[i], seed, i));
  const double us_scenario = spans ? spans->now_us() : 0.0;

  // The fault-recovery Montage shape (exp::make_fault_workload).
  workflow::MontageParams mp;
  mp.tiles = kTiles;
  mp.proj_bytes_min = 4 * units::MiB;
  mp.proj_bytes_max = 8 * units::MiB;
  mp.concat_cpu = 15.0;
  mp.bgmodel_cpu = 25.0;
  mp.imgtbl_cpu = 8.0;
  mp.madd_cpu = 35.0;
  mp.shrink_cpu = 5.0;
  Rng rng(seed);
  auto wf = workflow::make_montage(mp, rng);
  r.stats.user_bytes = wf.total_output_bytes();
  workflow::Engine engine(sc.cluster(), sc.fs(), sc.own_nodes());
  workflow::Report report;
  sc.sim().spawn(run_workflow(engine, std::move(wf), report));
  const auto t_setup = Clock::now();
  const double us_setup = spans ? spans->now_us() : 0.0;

  sc.sim().run();
  const auto t_run = Clock::now();
  r.setup_s = seconds_between(t0, t_setup);
  r.run_s = seconds_between(t_setup, t_run);
  if (spans) {
    const long parent =
        spans->add("perfbench.faulted_run", t_begin, spans->now_us(), seed);
    spans->add("exp.scenario_build", t_begin, us_scenario, seed, parent);
    spans->add("workflow.build", us_scenario, us_setup, seed, parent);
    spans->add("sim.run", us_setup, spans->now_us(), seed, parent);
  }

  r.ok = report.status.ok();
  if (!r.ok) r.error = report.status.error().to_string();
  auto& m = sc.cluster().obs().metrics;
  const auto& c = sc.fs().counters();
  SimStats& s = r.stats;
  s.makespan_s = report.makespan;
  s.events = sc.sim().executed_events();
  s.stripe_reads = c.stripes_read;
  s.stripe_writes = c.stripes_written;
  s.degraded_reads = c.degraded_reads;
  s.retries = c.read_retries + c.write_retries;
  s.stripes_repaired = sc.fs().recovery().stripes_repaired;
  s.demotions = m.counter_value("tier.demotions");
  s.promotions = m.counter_value("tier.promotions");
  s.cold_hits = m.counter_value("tier.cold_hits");
  s.crashes = inj.stats().crashes;
  s.tasks = report.tasks_run;
  s.net_flows = m.histogram_summary("net.flow.lifetime").count;
  s.net_msgs = m.counter_value("net.msg.count");
  s.stored = sc.fs().total_bytes();
  r.read_lat = m.histogram("fs.read_stripe.latency");
  r.write_lat = m.histogram("fs.write_stripe.latency");
  r.repair_lat = m.histogram("fs.repair.latency");
  if (traced) r.trace_doc = sc.cluster().obs().tracer.chrome_json();
  if (with_placement) r.place_ns = replay_placement(sc);
  return r;
}

std::uint64_t sub_seed(std::uint64_t seed, std::size_t i) {
  return hash::mix64(seed, 0x51b5eed0u + i);
}

/// Charge one faulted run to the tally and check its completion oracle.
void account(const SimRun& r, std::size_t idx, Tally& tally) {
  tally.attempt();
  if (!r.ok) {
    tally.fail("workflow_failed");
    tally.problem("sub-seed " + std::to_string(idx) +
                  ": workflow did not complete: " + r.error);
  }
  if (r.stats.crashes == 0)
    tally.problem("sub-seed " + std::to_string(idx) + ": no crash fired");
  if (r.stats.demotions == 0)
    tally.problem("sub-seed " + std::to_string(idx) + ": no tier demotion");
}

/// The histogram's own interpolated quantile in microseconds; the
/// percentile rule still applies to its sample count.
double quantile_us(const obs::Histogram& h, double q, Tally& tally) {
  if (samples_beyond(h.count(), q) < 10) {
    tally.problem("too few simulated stripe ops for a percentile");
    return 0.0;
  }
  return h.quantile(q) * 1e6;
}

void add_layer_metrics(const std::vector<SimRun>& runs,
                       const std::vector<double>& run_s, RunOutput& ro) {
  std::vector<Metric>& out = ro.metrics;
  SimStats sum;
  obs::Histogram write_lat, repair_lat;
  double place_ns = 0.0;
  for (const SimRun& r : runs) {
    const SimStats& s = r.stats;
    sum.events += s.events;
    sum.stripe_reads += s.stripe_reads;
    sum.stripe_writes += s.stripe_writes;
    sum.degraded_reads += s.degraded_reads;
    sum.retries += s.retries;
    sum.stripes_repaired += s.stripes_repaired;
    sum.demotions += s.demotions;
    sum.promotions += s.promotions;
    sum.cold_hits += s.cold_hits;
    sum.crashes += s.crashes;
    sum.tasks += s.tasks;
    sum.net_flows += s.net_flows;
    sum.net_msgs += s.net_msgs;
    write_lat.merge(r.write_lat);
    repair_lat.merge(r.repair_lat);
    if (r.place_ns > 0.0) place_ns = r.place_ns;
  }
  const double host_s = std::accumulate(run_s.begin(), run_s.end(), 0.0);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out.push_back({"sim.events", d(sum.events), "count"});
  out.push_back({"sim.events_per_sec", d(sum.events) / host_s, "1/s"});
  out.push_back({"hash.place_ns", place_ns, "ns"});
  out.push_back({"net.flows", d(sum.net_flows), "count"});
  out.push_back({"net.msgs", d(sum.net_msgs), "count"});
  out.push_back({"fs.stripe_reads", d(sum.stripe_reads), "count"});
  out.push_back({"fs.stripe_writes", d(sum.stripe_writes), "count"});
  out.push_back({"fs.degraded_reads", d(sum.degraded_reads), "count"});
  out.push_back({"fs.retries", d(sum.retries), "count"});
  out.push_back({"fs.stripes_repaired", d(sum.stripes_repaired), "count"});
  out.push_back({"fs.write_stripe_p50_ms",
                 quantile_us(write_lat, 0.5, ro.tally) / 1e3, "sim-ms"});
  out.push_back({"fs.repair_p50_ms",
                 quantile_us(repair_lat, 0.5, ro.tally) / 1e3, "sim-ms"});
  out.push_back({"kvstore.tier.demotions", d(sum.demotions), "count"});
  out.push_back({"kvstore.tier.promotions", d(sum.promotions), "count"});
  out.push_back({"kvstore.tier.cold_hits", d(sum.cold_hits), "count"});
  out.push_back({"cluster.crashes", d(sum.crashes), "count"});
  out.push_back({"workflow.tasks", d(sum.tasks), "count"});
}

void print_run(std::size_t idx, const SimRun& r) {
  const SimStats& s = r.stats;
  std::printf(
      "  sub-seed %zu: %s makespan=%.3fs host=%.3fs setup=%.4fs events=%llu "
      "crashes=%llu repaired=%llu demotions=%llu degraded=%llu\n",
      idx, r.ok ? "ok" : "FAILED", s.makespan_s, r.run_s, r.setup_s,
      static_cast<unsigned long long>(s.events),
      static_cast<unsigned long long>(s.crashes),
      static_cast<unsigned long long>(s.stripes_repaired),
      static_cast<unsigned long long>(s.demotions),
      static_cast<unsigned long long>(s.degraded_reads));
}

}  // namespace

void run_sim(const RunConfig& cfg, RunOutput& out) {
  Tally& tally = out.tally;
  std::vector<SimRun> first(kSubSeeds);
  // Per pass: each sub-seed's host seconds and set-up seconds, and the
  // host's steal rate over the pass.
  std::vector<std::vector<double>> run_s(kSubSeeds), traced_s(kSubSeeds),
      setup_s(kSubSeeds);
  std::vector<double> pass_steal;
  const auto t0 = Clock::now();
  double pass_s = 0.0;
  std::size_t passes = 0;
  // Whole passes over the sub-seeds until the next would overrun the
  // time budget. In a traced run each sub-seed also runs once with the
  // tracer on, back to back with its untraced run.
  do {
    const auto tp = Clock::now();
    const double steal0 = host_steal_s();
    for (std::size_t i = 0; i < kSubSeeds; ++i) {
      SimRun r = simulate(sub_seed(cfg.seed, i), false,
                          cfg.trace && passes == 0, nullptr);
      account(r, i, tally);
      setup_s[i].push_back(r.setup_s);
      run_s[i].push_back(r.run_s);
      if (passes == 0) {
        print_run(i, r);
        first[i] = std::move(r);
      } else if (!(r.stats == first[i].stats)) {
        tally.problem("sub-seed " + std::to_string(i) +
                      ": simulated statistics differ between passes");
      }
      if (!cfg.trace) continue;
      SimRun t = simulate(sub_seed(cfg.seed, i), true, false,
                          passes == 0 ? &out.spans : nullptr);
      tally.attempt();
      traced_s[i].push_back(t.run_s);
      if (!(t.stats == first[i].stats))
        tally.problem("sub-seed " + std::to_string(i) +
                      ": traced run's statistics differ from the untraced");
      if (passes == 0 && i == 0) {
        out.extra_events = std::string(trace_events_of(t.trace_doc));
        std::printf("  simulator tracer: %zu bytes of sim-time events\n",
                    out.extra_events.size());
      }
    }
    ++passes;
    pass_s = seconds_between(tp, Clock::now());
    pass_steal.push_back((host_steal_s() - steal0) / pass_s);
  } while (seconds_between(t0, Clock::now()) + pass_s <= cfg.seconds);
  std::printf("  %zu pass(es) over %zu sub-seeds in %.2fs; host s per pass:",
              passes, kSubSeeds, seconds_between(t0, Clock::now()));
  for (std::size_t p = 0; p < passes; ++p) {
    double sum = 0.0;
    for (const auto& v : run_s) sum += v[p];
    std::printf(" %.3f", sum);
  }
  std::printf("\n");

  const auto calm = calm_blocks(pass_steal);
  std::printf("  passes kept: %zu of %zu\n", calm.size(), passes);
  auto calm_median = [&](const std::vector<double>& per_pass) {
    std::vector<double> v;
    for (const auto p : calm) v.push_back(per_pass[p]);
    return median(v);
  };
  std::vector<double> med_run_s, setups;
  for (std::size_t i = 0; i < kSubSeeds; ++i) {
    med_run_s.push_back(calm_median(run_s[i]));
    for (const auto p : calm) setups.push_back(setup_s[i][p]);
  }

  if (cfg.trace) {
    add_layer_metrics(first, med_run_s, out);
    double untraced = 0.0, traced = 0.0;
    for (std::size_t i = 0; i < kSubSeeds; ++i) {
      untraced += med_run_s[i];
      traced += calm_median(traced_s[i]);
    }
    out.metrics.push_back(
        {"trace.overhead_frac", traced / untraced - 1.0, "ratio"});
    return;
  }

  SimStats sum;
  obs::Histogram read_lat, write_lat;
  for (const SimRun& r : first) {
    sum.makespan_s += r.stats.makespan_s;
    sum.stripe_reads += r.stats.stripe_reads;
    sum.stripe_writes += r.stats.stripe_writes;
    sum.stored += r.stats.stored;
    sum.user_bytes += r.stats.user_bytes;
    read_lat.merge(r.read_lat);
    write_lat.merge(r.write_lat);
  }
  const double n = static_cast<double>(kSubSeeds);
  const double host_s =
      std::accumulate(med_run_s.begin(), med_run_s.end(), 0.0);
  auto& m = out.metrics;
  m.push_back({"ops_per_sec",
               static_cast<double>(sum.stripe_reads + sum.stripe_writes) /
                   host_s,
               "1/s"});
  m.push_back({"get_p50_us", quantile_us(read_lat, 0.5, tally), "us"});
  m.push_back({"get_p99_us", quantile_us(read_lat, 0.99, tally), "us"});
  m.push_back({"put_p50_us", quantile_us(write_lat, 0.5, tally), "us"});
  m.push_back({"put_p99_us", quantile_us(write_lat, 0.99, tally), "us"});
  m.push_back({"bytes_per_user_byte",
               static_cast<double>(sum.stored) /
                   static_cast<double>(sum.user_bytes),
               "ratio"});
  m.push_back({"wall_s", host_s / n, "s"});
  m.push_back({"makespan_s", sum.makespan_s / n, "s"});
  m.push_back({"setup_s", median(setups), "s"});
}

void sim_layer_metrics(std::uint64_t seed, RunOutput& out) {
  std::vector<SimRun> runs;
  std::vector<double> run_s;
  for (std::size_t i = 0; i < kSubSeeds; ++i) {
    runs.push_back(simulate(sub_seed(seed, i), false, i == 0, nullptr));
    account(runs.back(), i, out.tally);
    run_s.push_back(runs.back().run_s);
  }
  add_layer_metrics(runs, run_s, out);
}

}  // namespace perfbench
