#include "rt/loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>

#include "common/table.hpp"
#include "hash/hashes.hpp"
#include "netio/client.hpp"
#include "rt/tcp_server.hpp"
#include "rt/tenant_registry.hpp"

namespace memfss::rt {

namespace {

/// Request ids used for the one-time AUTH on each connection live far
/// above the per-op id space (op ids are stream offsets < 2^32).
constexpr std::uint64_t kAuthIdBase = 0xA001000000000000ull;

struct ThreadTally {
  std::uint64_t puts = 0, gets = 0, dels = 0, not_found = 0, rejected = 0,
                overloaded = 0, retry_after_hints = 0, errors = 0,
                responses = 0, lost = 0, duplicated = 0, transport_errors = 0;
  std::uint64_t digest = hash::fnv1a_seed();
};

/// One op's outcome as a batch step reports it, staged until the whole
/// batch is in so the digest folds in submission order regardless of
/// response interleaving.
struct SlotResult {
  bool answered = false;
  Errc code = Errc::ok;
  std::uint64_t checksum = 0;
  bool has_hint = false;  ///< overloaded with a retry-after hint
};

/// Replays one thread's stream in closed-loop batches. `step(first,
/// slots)` runs stream ops [first, first + slots.size()) and fills one
/// slot per op; it returns false once its transport is dead, and the
/// rest of the stream then counts as lost. A zero batch runs one op at a
/// time.
template <class Step>
void replay(const std::vector<GenOp>& stream, std::size_t batch, Step& step,
            ThreadTally& tally) {
  std::vector<SlotResult> slots;
  std::size_t i = 0;
  while (i < stream.size()) {
    const std::size_t n =
        std::min(std::max<std::size_t>(batch, 1), stream.size() - i);
    slots.assign(n, SlotResult{});
    const bool alive = step(i, slots);
    for (std::size_t j = 0; j < n; ++j) {
      const GenOp& g = stream[i + j];
      const SlotResult& s = slots[j];
      if (!s.answered) {
        ++tally.lost;
        continue;
      }
      ++tally.responses;
      tally.digest = fold_result(tally.digest, g, s.code, s.checksum);
      switch (s.code) {
        case Errc::ok:
          if (g.type == Op::Type::put) ++tally.puts;
          if (g.type == Op::Type::del) ++tally.dels;
          if (g.type == Op::Type::get) ++tally.gets;
          break;
        case Errc::not_found: ++tally.not_found; break;
        case Errc::rejected: ++tally.rejected; break;
        case Errc::overloaded:
          ++tally.overloaded;
          if (s.has_hint) ++tally.retry_after_hints;
          break;
        default: ++tally.errors; break;
      }
    }
    i += n;
    if (!alive) {
      tally.lost += stream.size() - i;
      return;
    }
  }
}

/// The socket batch step: authenticates `connections_per_thread`
/// connections once, then per batch encodes the ops round-robin across
/// them, writes each connection's share in one send (pipelining) and
/// collects every response by request id. An id may be answered
/// exactly once: a repeat or unknown id is `duplicated`, a missing one
/// leaves its slot unanswered (`lost`).
class SocketStep {
 public:
  SocketStep(std::uint16_t port, const LoadgenOptions& opt,
             const std::vector<GenOp>& stream, ThreadTally& tally)
      : opt_(opt), stream_(stream), tally_(tally),
        conns_(opt.connections_per_thread),
        wire_(opt.connections_per_thread),
        open_(opt.connections_per_thread) {
    for (std::size_t c = 0; c < conns_.size() && alive_; ++c) {
      auto& conn = conns_[c];
      alive_ = conn.connect(port).ok() && conn.set_recv_timeout(30.0).ok() &&
               conn.authenticate(kAuthIdBase + c, opt.auth_token).ok();
    }
    if (!alive_) ++tally_.transport_errors;
  }

  bool operator()(std::size_t first, std::span<SlotResult> slots) {
    if (!alive_) return false;
    const std::size_t conns = conns_.size();
    for (auto& w : wire_) w.clear();
    for (std::size_t j = 0; j < slots.size(); ++j) {
      const GenOp& g = stream_[first + j];
      const std::size_t c = j % conns;
      const std::uint64_t rid = static_cast<std::uint64_t>(first + j);
      Op op =
          stream_op(g, loadgen_key(g.key_index), opt_.value_size, first + j);
      netio::encode_frame(op_frame(std::move(op), rid), wire_[c]);
      open_[c].emplace(rid, j);
    }
    for (std::size_t c = 0; c < conns && alive_; ++c) {
      if (wire_[c].empty()) continue;
      if (!conns_[c].send_raw(wire_[c]).ok()) fail();
    }
    for (std::size_t c = 0; c < conns && alive_; ++c) {
      while (!open_[c].empty()) {
        auto got = conns_[c].recv();
        if (!got.ok()) {
          fail();
          break;
        }
        const netio::Frame& rf = got.value();
        auto it = open_[c].find(rf.request_id);
        if (it == open_[c].end()) {
          ++tally_.duplicated;
          continue;
        }
        slots[it->second] = {true, static_cast<Errc>(rf.status), rf.checksum,
                             rf.retry_after_us > 0};
        open_[c].erase(it);
      }
    }
    return alive_;
  }

 private:
  void fail() {
    ++tally_.transport_errors;
    alive_ = false;
  }

  const LoadgenOptions& opt_;
  const std::vector<GenOp>& stream_;
  ThreadTally& tally_;
  std::vector<netio::NetClient> conns_;
  std::vector<std::vector<std::uint8_t>> wire_;
  /// Per connection: request id -> slot index in the current batch.
  std::vector<std::unordered_map<std::uint64_t, std::size_t>> open_;
  bool alive_ = true;
};

}  // namespace

LoadgenResult run_loadgen(const LoadgenOptions& opt) {
  LoadgenResult res;
  res.opt = opt;

  ShardedStore store({opt.shards, opt.capacity, opt.auth_token});
  RuntimeServer server(
      store, {opt.server_threads, opt.queue_capacity,
              std::chrono::microseconds(opt.service_time_us)});
  std::optional<TcpServer> tcp;
  if (opt.connections_per_thread > 0) {
    TcpServer::Options topt;
    topt.reactors = std::max<std::size_t>(1, opt.reactors);
    tcp.emplace(server, topt);
  }

  // Streams are generated before any thread starts so the generator's
  // cost never pollutes the measured window.
  std::vector<std::vector<GenOp>> streams;
  streams.reserve(opt.client_threads);
  for (std::size_t t = 0; t < opt.client_threads; ++t)
    streams.push_back(generate_stream(opt.stream, t));

  std::vector<ThreadTally> tallies(opt.client_threads);

  auto client = [&](std::size_t t) {
    const auto& stream = streams[t];
    if (tcp) {
      SocketStep step(tcp->port(), opt, stream, tallies[t]);
      replay(stream, opt.batch, step, tallies[t]);
      return;
    }
    auto step = [&](std::size_t first, std::span<SlotResult> slots) {
      std::vector<Op> batch;
      batch.reserve(slots.size());
      for (std::size_t j = 0; j < slots.size(); ++j) {
        const GenOp& g = stream[first + j];
        batch.push_back(stream_op(g, loadgen_key(g.key_index), opt.value_size,
                                  first + j));
      }
      const auto results = server.run_batch(opt.auth_token, std::move(batch));
      for (std::size_t j = 0; j < slots.size(); ++j) {
        const OpResult& r = results[j];
        slots[j] = {true, r.code, r.value.checksum(), r.retry_after_s > 0.0};
      }
      return true;
    };
    replay(stream, opt.batch, step, tallies[t]);
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(opt.client_threads);
  for (std::size_t t = 0; t < opt.client_threads; ++t)
    threads.emplace_back(client, t);
  for (auto& th : threads) th.join();
  res.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0).count();
  if (tcp) tcp->shutdown();

  std::vector<std::uint64_t> digests;
  digests.reserve(tallies.size());
  for (const auto& tally : tallies) {
    res.puts += tally.puts;
    res.gets += tally.gets;
    res.dels += tally.dels;
    res.not_found += tally.not_found;
    res.rejected += tally.rejected;
    res.overloaded += tally.overloaded;
    res.retry_after_hints += tally.retry_after_hints;
    res.errors += tally.errors;
    res.responses += tally.responses;
    res.lost += tally.lost;
    res.duplicated += tally.duplicated;
    res.transport_errors += tally.transport_errors;
    digests.push_back(tally.digest);
  }
  res.result_digest = combine_digests(digests);
  const std::uint64_t completed =
      res.puts + res.gets + res.dels + res.not_found + res.errors;
  res.ops_per_sec =
      res.wall_s > 0.0 ? static_cast<double>(completed) / res.wall_s : 0.0;
  res.latency = server.metrics().histogram_summary("rt.op.latency_s");
  res.bytes_in = server.metrics().counter_value("rt.net.bytes_in");
  res.bytes_out = server.metrics().counter_value("rt.net.bytes_out");
  return res;
}

std::string loadgen_csv_header() {
  return csv_row({"client_threads", "connections_per_thread", "reactors",
                  "server_threads", "shards", "ops_per_thread", "batch",
                  "value_size", "get_fraction", "del_fraction", "zipf_theta",
                  "service_time_us", "seed", "wall_s", "ops_per_sec", "puts",
                  "gets", "dels", "not_found", "rejected", "overloaded",
                  "retry_after_hints", "errors", "responses", "lost",
                  "duplicated", "transport_errors", "bytes_in", "bytes_out",
                  "lat_p50_s", "lat_p95_s", "lat_p99_s", "result_digest"});
}

std::string loadgen_csv_row(const LoadgenResult& r) {
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  const auto& o = r.opt;
  const auto& s = o.stream;
  return csv_row({std::to_string(o.client_threads),
                  std::to_string(o.connections_per_thread),
                  std::to_string(o.reactors),
                  std::to_string(o.server_threads), std::to_string(o.shards),
                  std::to_string(s.ops_per_thread), std::to_string(o.batch),
                  std::to_string(o.value_size), num(s.get_fraction),
                  num(s.del_fraction), num(s.zipf_theta),
                  std::to_string(o.service_time_us), std::to_string(s.seed),
                  num(r.wall_s), num(r.ops_per_sec), std::to_string(r.puts),
                  std::to_string(r.gets), std::to_string(r.dels),
                  std::to_string(r.not_found), std::to_string(r.rejected),
                  std::to_string(r.overloaded),
                  std::to_string(r.retry_after_hints),
                  std::to_string(r.errors), std::to_string(r.responses),
                  std::to_string(r.lost), std::to_string(r.duplicated),
                  std::to_string(r.transport_errors),
                  std::to_string(r.bytes_in), std::to_string(r.bytes_out),
                  num(r.latency.p50), num(r.latency.p95), num(r.latency.p99),
                  std::to_string(r.result_digest)});
}

// --- Multi-tenant QoS scenario ---------------------------------------

namespace {

std::string qos_key(const std::string& tenant, std::uint32_t key_index) {
  return tenant + ":k" + std::to_string(key_index);
}

struct QosTally {
  std::uint64_t submitted = 0, ok = 0, not_found = 0, rejected = 0,
                overloaded = 0, hints = 0, errors = 0;
  obs::Histogram latency;  ///< completed (ok / not_found) ops only
};

}  // namespace

QosRunResult run_qos_scenario(const QosOptions& opt) {
  QosRunResult res;
  TenantRegistry registry(opt.tenants.size() + 1);
  ShardedStore store({opt.shards, opt.capacity, opt.auth_token, &registry});
  RuntimeServer::Options sopt;
  sopt.threads = opt.server_threads;
  sopt.queue_capacity = opt.queue_capacity;
  sopt.service_time = std::chrono::microseconds(opt.service_time_us);
  sopt.tenants = &registry;
  RuntimeServer server(store, sopt);

  std::vector<std::uint32_t> tids;
  tids.reserve(opt.tenants.size());
  for (const auto& spec : opt.tenants) {
    TenantConfig cfg;
    cfg.name = spec.name;
    cfg.priority = spec.priority;
    cfg.weight = spec.weight;
    cfg.ops_per_s = spec.ops_per_s;
    cfg.ops_burst = spec.ops_burst;
    cfg.bytes_per_s = spec.bytes_per_s;
    cfg.memory_quota = spec.memory_quota;
    auto reg = registry.register_tenant(std::move(cfg));
    tids.push_back(reg.ok() ? reg.value() : 0);
  }

  // Per-(tenant, thread) op streams, reusing the single-tenant
  // generator with a tenant-mixed seed: deterministic across runs, so
  // baseline and adversarial runs offer identical small-tenant work.
  auto gen_stream = [&](std::size_t tenant_idx, std::size_t thread_idx) {
    StreamOptions so;
    so.seed = opt.seed ^ (0xa24baed4963ee407ull *
                          (static_cast<std::uint64_t>(tenant_idx) + 1));
    so.ops_per_thread = opt.tenants[tenant_idx].ops_per_thread;
    so.get_fraction = opt.get_fraction;
    so.del_fraction = opt.del_fraction;
    so.key_space = opt.key_space;
    return generate_stream(so, thread_idx);
  };

  // Abusive tenants cycle their stream until every normal tenant is
  // done; the sampler keeps auditing until all clients have joined.
  std::atomic<bool> normals_done{false};
  std::atomic<bool> all_done{false};
  std::atomic<bool> acc_ok{true};
  std::mutex acc_mu;
  std::string acc_msg;
  auto acc_fail = [&](const std::string& msg) {
    bool expected = true;
    if (acc_ok.compare_exchange_strong(expected, false)) {
      std::lock_guard lk(acc_mu);
      acc_msg = msg;
    }
  };

  // Continuous invariants, each a single atomic read against a
  // constant, so the check is sound mid-race: the aggregate cap and
  // every tenant's quota. (Cross-atomic equality -- tenant bytes
  // summing to the aggregate -- is only defined at quiescence and is
  // checked after the clients join.)
  std::thread sampler([&] {
    while (!all_done.load(std::memory_order_acquire)) {
      if (store.used() > store.capacity())
        acc_fail("used() exceeded capacity() mid-run");
      for (std::size_t i = 0; i < tids.size(); ++i) {
        const Bytes quota = registry.memory_quota(tids[i]);
        if (quota != 0 && registry.memory_used(tids[i]) > quota)
          acc_fail("tenant " + opt.tenants[i].name + " exceeded quota");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  struct ClientSlot {
    std::size_t tenant_idx;
    std::size_t thread_idx;
    QosTally tally;
  };
  std::vector<ClientSlot> slots;
  for (std::size_t ti = 0; ti < opt.tenants.size(); ++ti)
    for (std::size_t ci = 0; ci < opt.tenants[ti].client_threads; ++ci)
      slots.push_back({ti, ci, {}});

  auto client = [&](ClientSlot& slot) {
    const QosTenantSpec& spec = opt.tenants[slot.tenant_idx];
    const std::uint32_t tid = tids[slot.tenant_idx];
    const auto stream = gen_stream(slot.tenant_idx, slot.thread_idx);
    QosTally& tally = slot.tally;
    std::size_t i = 0;
    while (true) {
      if (i >= stream.size()) {
        if (!spec.abusive) break;
        if (normals_done.load(std::memory_order_acquire)) break;
        i = 0;  // abuser: cycle the stream until the others finish
      }
      // A zero batch runs one op at a time.
      const std::size_t n =
          std::min(std::max<std::size_t>(spec.batch, 1), stream.size() - i);
      std::vector<Op> batch;
      batch.reserve(n);
      for (std::size_t j = 0; j < n; ++j) {
        const GenOp& g = stream[i + j];
        batch.push_back(stream_op(g, qos_key(spec.name, g.key_index),
                                  opt.value_size, i + j, tid));
      }
      const auto results = server.run_batch(opt.auth_token, std::move(batch));
      double worst_hint_s = 0.0;
      for (const OpResult& r : results) {
        ++tally.submitted;
        switch (r.code) {
          case Errc::ok:
            ++tally.ok;
            tally.latency.add(r.latency_s);
            break;
          case Errc::not_found:
            ++tally.not_found;
            tally.latency.add(r.latency_s);
            break;
          case Errc::rejected:
            ++tally.rejected;
            break;
          case Errc::overloaded:
            ++tally.overloaded;
            if (r.retry_after_s > 0.0) {
              ++tally.hints;
              worst_hint_s = std::max(worst_hint_s, r.retry_after_s);
            }
            break;
          default:
            ++tally.errors;
            break;
        }
      }
      i += n;
      // Well-behaved tenants pace themselves and honor retry-after
      // hints (capped so a pathological hint cannot wedge a client);
      // abusers do neither -- that is what makes them abusive.
      if (!spec.abusive) {
        double sleep_s = spec.pace_us * 1e-6;
        sleep_s += std::min(worst_hint_s, 0.05);
        if (sleep_s > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      } else if (spec.pace_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(spec.pace_us));
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> normal_threads, abuser_threads;
  for (auto& slot : slots) {
    auto& group =
        opt.tenants[slot.tenant_idx].abusive ? abuser_threads : normal_threads;
    group.emplace_back(client, std::ref(slot));
  }
  for (auto& th : normal_threads) th.join();
  normals_done.store(true, std::memory_order_release);
  for (auto& th : abuser_threads) th.join();
  res.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0).count();
  all_done.store(true, std::memory_order_release);
  sampler.join();

  // Quiescent accounting: the per-tenant atomic counters, the shard
  // owner maps, and the aggregate must all agree exactly.
  Bytes shard_sum = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s)
    shard_sum += store.shard_recomputed_used(s);
  if (store.used() != shard_sum)
    acc_fail("quiesce: used() != recomputed shard sum");
  if (registry.total_resident() != store.used())
    acc_fail("quiesce: per-tenant bytes do not sum to aggregate");

  res.accounting_ok = acc_ok.load();
  {
    std::lock_guard lk(acc_mu);
    res.accounting_msg = acc_msg;
  }

  // Fold per-thread tallies into per-tenant results (spec order).
  res.tenants.resize(opt.tenants.size());
  std::vector<obs::Histogram> lat(opt.tenants.size());
  for (std::size_t ti = 0; ti < opt.tenants.size(); ++ti) {
    QosTenantResult& tr = res.tenants[ti];
    tr.name = opt.tenants[ti].name;
    tr.priority = opt.tenants[ti].priority;
    tr.weight = opt.tenants[ti].weight;
  }
  for (const auto& slot : slots) {
    QosTenantResult& tr = res.tenants[slot.tenant_idx];
    tr.submitted += slot.tally.submitted;
    tr.ok += slot.tally.ok;
    tr.not_found += slot.tally.not_found;
    tr.rejected += slot.tally.rejected;
    tr.overloaded += slot.tally.overloaded;
    tr.retry_after_hints += slot.tally.hints;
    tr.errors += slot.tally.errors;
    lat[slot.tenant_idx].merge(slot.tally.latency);
  }
  for (std::size_t ti = 0; ti < res.tenants.size(); ++ti) {
    QosTenantResult& tr = res.tenants[ti];
    tr.latency = lat[ti].summary();
    const std::uint64_t completed = tr.ok + tr.not_found;
    tr.ops_per_sec = res.wall_s > 0.0
                         ? static_cast<double>(completed) / res.wall_s
                         : 0.0;
  }
  return res;
}

QosScenarioResult run_qos_adversarial(const QosOptions& opt) {
  QosScenarioResult out;
  QosOptions baseline = opt;
  baseline.tenants.clear();
  for (const auto& spec : opt.tenants)
    if (!spec.abusive) baseline.tenants.push_back(spec);
  out.baseline = run_qos_scenario(baseline);
  out.adversarial = run_qos_scenario(opt);

  // Isolation: each normal tenant's p99 against its own baseline.
  for (const auto& adv : out.adversarial.tenants) {
    for (const auto& base : out.baseline.tenants) {
      if (base.name != adv.name) continue;
      if (base.latency.p99 > 0.0 && adv.latency.count > 0)
        out.worst_isolation =
            std::max(out.worst_isolation, adv.latency.p99 / base.latency.p99);
    }
  }
  // Abusers must be shed by policy (overloaded + hint), not by
  // queue-full rejections spilling out of their lane.
  bool any_abuser = false, shed_ok = true;
  for (std::size_t ti = 0; ti < opt.tenants.size(); ++ti) {
    if (!opt.tenants[ti].abusive) continue;
    any_abuser = true;
    const QosTenantResult& tr = out.adversarial.tenants[ti];
    if (tr.overloaded == 0 || tr.overloaded < tr.rejected) shed_ok = false;
  }
  out.abuser_shed_via_overload = any_abuser && shed_ok;
  return out;
}

QosOptions default_qos_options(std::size_t small_tenants, std::uint64_t seed) {
  QosOptions opt;
  opt.seed = seed;
  opt.server_threads = 4;
  opt.shards = 16;
  opt.queue_capacity = 256;
  opt.service_time_us = 200;
  opt.value_size = 1024;
  opt.get_fraction = 0.5;
  opt.del_fraction = 0.05;
  opt.key_space = 512;
  opt.capacity = 256 * units::MiB;
  for (std::size_t i = 0; i < small_tenants; ++i) {
    QosTenantSpec s;
    s.name = "small" + std::to_string(i);
    s.priority = 5;
    s.weight = 2;
    s.ops_per_s = 4000;   // never binds at the paced offered rate
    s.memory_quota = 16 * units::MiB;
    s.client_threads = 1;
    s.ops_per_thread = 600;
    s.batch = 2;
    s.pace_us = 1500;  // ~1k ops/s offered, well under quota
    opt.tenants.push_back(std::move(s));
  }
  QosTenantSpec abuser;
  abuser.name = "abuser";
  abuser.priority = 0;   // best-effort: first to pressure-shed
  abuser.weight = 1;
  abuser.ops_per_s = 400;  // offered load lands >= 10x past this
  abuser.ops_burst = 50;
  abuser.memory_quota = 4 * units::MiB;
  abuser.client_threads = 2;
  abuser.ops_per_thread = 4000;
  abuser.batch = 32;
  abuser.pace_us = 200;  // bounds the spin; still wildly over quota
  abuser.abusive = true;
  opt.tenants.push_back(std::move(abuser));
  return opt;
}

std::string qos_csv_header() {
  return csv_row({"scenario", "tenant", "priority", "weight", "submitted",
                  "ok", "not_found", "rejected", "overloaded",
                  "retry_after_hints", "errors", "ops_per_sec", "lat_p50_s",
                  "lat_p95_s", "lat_p99_s", "isolation_p99"});
}

std::string qos_csv_row(std::string_view scenario, const QosTenantResult& r,
                        double isolation_p99) {
  auto num = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::string(buf);
  };
  return csv_row({std::string(scenario), r.name, std::to_string(r.priority),
                  std::to_string(r.weight), std::to_string(r.submitted),
                  std::to_string(r.ok), std::to_string(r.not_found),
                  std::to_string(r.rejected), std::to_string(r.overloaded),
                  std::to_string(r.retry_after_hints),
                  std::to_string(r.errors), num(r.ops_per_sec),
                  num(r.latency.p50), num(r.latency.p95), num(r.latency.p99),
                  num(isolation_p99)});
}

}  // namespace memfss::rt
