#include "rt/net_chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hash/hashes.hpp"
#include "netio/client.hpp"
#include "netio/resilient_client.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tcp_server.hpp"

namespace memfss::rt {
namespace {

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Per-thread key namespace: key spaces are disjoint by construction,
/// so each thread's view of its keys is sequential (file comment in
/// net_chaos.hpp).
std::string chaos_key(std::size_t thread, std::uint32_t key_index) {
  return "c" + std::to_string(thread) + ":" + loadgen_key(key_index);
}

/// What the store may hold for one key, as far as its owning thread can
/// prove. Acked ops collapse the state exactly; ops that died after
/// their bytes (possibly partially) hit the wire add possibilities that
/// stay until the next ack on the key.
struct KeyState {
  bool maybe_absent = true;              ///< "key absent" is possible
  std::set<std::uint64_t> maybe_values;  ///< checksums possibly resident
  std::set<std::uint64_t> ever;          ///< every checksum ever sent
};

struct ThreadTally {
  std::uint64_t calls = 0, acked = 0, acked_ok = 0, acked_not_found = 0,
                acked_other = 0, failed = 0, fatal = 0;
  std::uint64_t lost = 0, dup = 0, viol = 0;
  std::uint64_t digest = hash::fnv1a_seed();
  std::vector<KeyState> keys;
  obs::Histogram lat;
  netio::ResilientStats stats;
};

/// One client thread: replay its deterministic stream through the
/// proxy with a ResilientClient, folding every *acked* result into the
/// digest and every outcome into the per-key possibility model.
void run_client(const NetChaosOptions& opt, std::uint16_t proxy_port,
                std::size_t t, ThreadTally& ta) {
  const StreamOptions sopt{opt.seed,         opt.ops_per_thread,
                           opt.get_fraction, opt.del_fraction,
                           0.0,              opt.key_space};
  const std::vector<GenOp> stream = generate_stream(sopt, t);
  ta.keys.resize(opt.key_space);

  netio::ResilientOptions ropt;
  ropt.port = proxy_port;
  ropt.auth_token = opt.auth_token;
  ropt.seed = opt.seed * 7919 + t + 1;
  ropt.attempt_recv_timeout_s = opt.attempt_recv_timeout_s;
  ropt.default_deadline_s = opt.call_deadline_s;
  ropt.backoff_base_s = 0.002;
  ropt.backoff_max_s = 0.05;
  ropt.breaker.cooldown = 0.05;
  netio::ResilientClient rc(ropt);

  for (std::size_t i = 0; i < stream.size(); ++i) {
    const GenOp& g = stream[i];
    const std::uint64_t rid =
        (static_cast<std::uint64_t>(t + 1) << 40) | static_cast<std::uint64_t>(i);
    KeyState& ks = ta.keys[g.key_index];

    Op op = stream_op(g, chaos_key(t, g.key_index), opt.value_size, i);
    const std::uint64_t put_sum = op.value.checksum();  // 0 unless a put
    const netio::Frame req = op_frame(std::move(op), rid);

    const double t0 = mono_s();
    // Every op here is idempotent: PUT re-sends the identical
    // deterministic bytes under the same id, GET/DEL converge.
    const netio::CallOutcome out = rc.call(req, /*idempotent=*/true);
    ta.lat.add(mono_s() - t0);
    ++ta.calls;

    if (g.type == Op::Type::put && out.sends > 0) ks.ever.insert(put_sum);

    if (!out.answered) {
      ++ta.failed;
      if (out.code == Errc::fatal) ++ta.fatal;
      // The op may have been applied anyway; widen the possibilities.
      if (out.sends > 0) {
        if (g.type == Op::Type::put) ks.maybe_values.insert(put_sum);
        if (g.type == Op::Type::del) ks.maybe_absent = true;
      }
      continue;
    }

    const Errc code = static_cast<Errc>(out.code);
    ++ta.acked;
    if (code == Errc::ok)
      ++ta.acked_ok;
    else if (code == Errc::not_found)
      ++ta.acked_not_found;
    else
      ++ta.acked_other;
    ta.digest = fold_result(ta.digest, g, code, out.response.checksum);

    switch (g.type) {
      case Op::Type::put:
        if (code == Errc::ok) {
          ks.maybe_absent = false;
          ks.maybe_values.clear();
          ks.maybe_values.insert(put_sum);
        } else if (out.sends > 0) {
          // Answered but not applied (oom, ...); an earlier lost
          // attempt might still have landed.
          ks.maybe_values.insert(put_sum);
        }
        break;
      case Op::Type::del:
        if (code == Errc::ok) {
          if (ks.maybe_values.empty()) ++ta.viol;  // deleted a value nobody put
        } else if (code == Errc::not_found) {
          // DEL is idempotent in effect but not in answer: when the
          // request hit the wire more than once, an earlier attempt may
          // have deleted the key and lost its response, and the acked
          // retry then legitimately answers not_found for a key the
          // model knew present. Only a single-transmission not_found
          // proves the key was absent before the call.
          if (!ks.maybe_absent && out.sends <= 1) ++ta.viol;
        }
        if (code == Errc::ok || code == Errc::not_found) {
          ks.maybe_absent = true;
          ks.maybe_values.clear();
        } else if (out.sends > 0) {
          ks.maybe_absent = true;
        }
        break;
      case Op::Type::get:
        if (code == Errc::ok) {
          const std::uint64_t c = out.response.checksum;
          if (ks.maybe_values.count(c)) {
            ks.maybe_absent = false;
            ks.maybe_values.clear();
            ks.maybe_values.insert(c);
          } else if (ks.ever.count(c)) {
            ++ta.dup;  // a superseded attempt re-landed
          } else {
            ++ta.viol;  // bytes we never sent for this key
          }
        } else if (code == Errc::not_found) {
          if (!ks.maybe_absent)
            ++ta.lost;  // an acked value vanished
          else
            ks.maybe_values.clear();  // collapse: absent right now
        }
        break;
      default:
        break;
    }
  }
  ta.stats = rc.stats();
}

/// Sequential in-process replay of the same streams: the result digest
/// the wire path must reproduce when nothing faults. Valid because key
/// spaces are disjoint (thread order does not matter) and capacity is
/// ample (no cross-thread eviction coupling).
std::uint64_t oracle_replay(const NetChaosOptions& opt) {
  ShardedStore store({opt.shards, opt.capacity, opt.auth_token});
  RuntimeServer server(store,
                       {1, opt.queue_capacity, std::chrono::microseconds(0)});
  std::vector<std::uint64_t> per(opt.client_threads);
  const StreamOptions sopt{opt.seed,         opt.ops_per_thread,
                           opt.get_fraction, opt.del_fraction,
                           0.0,              opt.key_space};
  for (std::size_t t = 0; t < opt.client_threads; ++t) {
    std::uint64_t digest = hash::fnv1a_seed();
    const std::vector<GenOp> stream = generate_stream(sopt, t);
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const GenOp& g = stream[i];
      Op op = stream_op(g, chaos_key(t, g.key_index), opt.value_size, i);
      const OpResult r = server.submit(opt.auth_token, std::move(op)).get();
      digest = fold_result(digest, g, r.code, r.value.checksum());
    }
    per[t] = digest;
  }
  return combine_digests(per);
}

}  // namespace

NetChaosResult run_net_chaos(const NetChaosOptions& opt) {
  NetChaosResult res;
  res.opt = opt;
  const double t_start = mono_s();

  ShardedStore store({opt.shards, opt.capacity, opt.auth_token});
  RuntimeServer server(store, {opt.server_threads, opt.queue_capacity,
                               std::chrono::microseconds(opt.service_time_us)});
  TcpServer::Options topt;
  topt.reactors = opt.reactors;
  topt.idle_timeout = opt.idle_timeout;
  TcpServer tcp(server, topt);

  netio::ChaosPlan plan = opt.plan;
  plan.seed = opt.seed;
  netio::ChaosProxy proxy(tcp.port(), plan);
  if (!proxy.ok()) {
    res.fail_reason = "chaos proxy failed to start";
    return res;
  }
  proxy.set_faults_enabled(opt.faults);

  // -- chaos phase: N clients through the proxy -------------------------
  std::vector<ThreadTally> tallies(opt.client_threads);
  {
    std::vector<std::thread> ts;
    ts.reserve(opt.client_threads);
    for (std::size_t t = 0; t < opt.client_threads; ++t)
      ts.emplace_back(
          [&, t] { run_client(opt, proxy.port(), t, tallies[t]); });
    for (auto& th : ts) th.join();
  }

  // -- quiesce: faults off, let delayed pieces drain --------------------
  proxy.set_faults_enabled(false);
  const double settle_s =
      0.05 + 3.0 * static_cast<double>(opt.plan.delay_max_us) / 1e6;
  std::this_thread::sleep_for(std::chrono::duration<double>(settle_s));

  obs::Histogram lat;
  std::vector<std::uint64_t> per_digest(opt.client_threads);
  for (std::size_t t = 0; t < opt.client_threads; ++t) {
    ThreadTally& ta = tallies[t];
    res.calls += ta.calls;
    res.acked += ta.acked;
    res.acked_ok += ta.acked_ok;
    res.acked_not_found += ta.acked_not_found;
    res.acked_other += ta.acked_other;
    res.failed_calls += ta.failed;
    res.fatal_calls += ta.fatal;
    res.lost_acks += ta.lost;
    res.duplicated_acks += ta.dup;
    res.consistency_violations += ta.viol;
    lat.merge(ta.lat);
    per_digest[t] = ta.digest;
    res.attempts += ta.stats.attempts;
    res.retries += ta.stats.retries;
    res.reconnects += ta.stats.reconnects;
    res.connect_failures += ta.stats.connect_failures;
    res.timeouts += ta.stats.timeouts;
    res.corrupt_frames += ta.stats.corrupt_frames;
    res.protocol_errors += ta.stats.protocol_errors;
    res.mismatched_ids += ta.stats.mismatched_ids;
    res.value_checksum_failures += ta.stats.value_checksum_failures;
    res.overloaded_waits += ta.stats.overloaded_waits;
    res.breaker_opens += ta.stats.breaker_opens;
    res.breaker_rejections += ta.stats.breaker_rejections;
  }
  res.call_latency = lat.summary();
  res.read_digest = combine_digests(per_digest);

  // -- final verification over a clean direct connection ----------------
  {
    netio::NetClient direct;
    Status st = direct.connect(tcp.port());
    if (st.ok()) st = direct.set_recv_timeout(2.0);
    if (st.ok()) {
      std::uint64_t vid = 1ull << 50;
      st = direct.authenticate(++vid, opt.auth_token);
      for (std::size_t t = 0; st.ok() && t < opt.client_threads; ++t) {
        for (std::uint32_t k = 0; st.ok() && k < opt.key_space; ++k) {
          const KeyState& ks = tallies[t].keys[k];
          st = direct.send(
              netio::NetClient::make_get(++vid, 0, chaos_key(t, k)));
          if (!st.ok()) break;
          auto rf = direct.recv();
          if (!rf.ok()) {
            st = Status(rf.error());
            break;
          }
          const netio::Frame& f = rf.value();
          const Errc code = static_cast<Errc>(f.status);
          if (code == Errc::ok) {
            if (ks.maybe_values.count(f.checksum)) {
              // Allowed by the model; also check the bytes themselves.
              const std::string_view bytes(
                  reinterpret_cast<const char*>(f.value.data()),
                  f.value.size());
              if (f.value.size() == f.value_size &&
                  hash::fnv1a(bytes) != f.checksum)
                ++res.consistency_violations;
            } else if (ks.ever.count(f.checksum)) {
              ++res.duplicated_acks;
            } else {
              ++res.consistency_violations;
            }
          } else if (code == Errc::not_found) {
            if (!ks.maybe_absent) ++res.lost_acks;
          } else {
            ++res.consistency_violations;
          }
        }
      }
    }
    if (!st.ok()) {
      res.fail_reason = "verification read failed: " + st.error().to_string();
      ++res.consistency_violations;
    }
  }

  // -- accounting invariants after quiesce ------------------------------
  {
    const Bytes used = store.used();
    Bytes sum_acc = 0, sum_rec = 0;
    for (std::size_t s = 0; s < opt.shards; ++s) {
      sum_acc += store.shard_used(s);
      sum_rec += store.shard_recomputed_used(s);
    }
    res.accounting_ok =
        used == sum_acc && used == sum_rec && used <= store.capacity();
    if (!res.accounting_ok) {
      res.accounting_msg = "used=" + std::to_string(used) +
                           " shard_sum=" + std::to_string(sum_acc) +
                           " recomputed=" + std::to_string(sum_rec) +
                           " capacity=" + std::to_string(store.capacity());
    }
  }

  proxy.shutdown();
  res.chaos = proxy.stats();
  tcp.shutdown();
  res.srv_resets = server.metrics().counter_value("rt.net.resets");
  res.srv_idle_reaps = server.metrics().counter_value("rt.net.idle_reaps");
  res.srv_protocol_errors =
      server.metrics().counter_value("rt.net.protocol_errors");

  res.oracle_digest = oracle_replay(opt);
  res.digest_ok = res.read_digest == res.oracle_digest;
  res.wall_s = mono_s() - t_start;

  // -- verdict ----------------------------------------------------------
  res.passed = true;
  auto fail = [&res](const std::string& why) {
    res.passed = false;
    if (res.fail_reason.empty()) res.fail_reason = why;
  };
  if (res.calls !=
      static_cast<std::uint64_t>(opt.client_threads) * opt.ops_per_thread)
    fail("not every op ran to a terminal outcome");
  if (res.acked == 0) fail("no op was ever acknowledged");
  if (res.lost_acks) fail("lost acknowledged ops");
  if (res.duplicated_acks) fail("superseded writes re-landed");
  if (res.consistency_violations)
    fail(res.fail_reason.empty() ? "reads outside the possibility model"
                                 : res.fail_reason);
  if (!res.accounting_ok) fail("accounting broken: " + res.accounting_msg);
  if (!opt.faults) {
    if (res.failed_calls) fail("clean arm had failed calls");
    if (!res.digest_ok) fail("clean arm digest != in-process oracle");
  }
  return res;
}

std::string net_chaos_csv_header() {
  return "seed,faults,calls,acked,acked_ok,acked_not_found,acked_other,"
         "failed_calls,fatal_calls,attempts,retries,reconnects,timeouts,"
         "corrupt_frames,overloaded_waits,breaker_opens,resets_injected,"
         "blackholed,chunks_corrupted,chunks_torn,chunks_delayed,"
         "srv_resets,srv_idle_reaps,lost_acks,duplicated_acks,"
         "consistency_violations,accounting_ok,digest_ok,p50_ms,p99_ms,"
         "wall_s,passed";
}

std::string net_chaos_csv_row(const NetChaosResult& r) {
  char tail[128];
  std::snprintf(tail, sizeof(tail), "%.3f,%.3f,%.3f,%d",
                r.call_latency.p50 * 1e3, r.call_latency.p99 * 1e3, r.wall_s,
                r.passed ? 1 : 0);
  std::string s;
  auto add = [&s](std::uint64_t v) { s += std::to_string(v) + ","; };
  add(r.opt.seed);
  add(r.opt.faults ? 1 : 0);
  add(r.calls);
  add(r.acked);
  add(r.acked_ok);
  add(r.acked_not_found);
  add(r.acked_other);
  add(r.failed_calls);
  add(r.fatal_calls);
  add(r.attempts);
  add(r.retries);
  add(r.reconnects);
  add(r.timeouts);
  add(r.corrupt_frames);
  add(r.overloaded_waits);
  add(r.breaker_opens);
  add(r.chaos.resets_injected);
  add(r.chaos.blackholed);
  add(r.chaos.chunks_corrupted);
  add(r.chaos.chunks_torn);
  add(r.chaos.chunks_delayed);
  add(r.srv_resets);
  add(r.srv_idle_reaps);
  add(r.lost_acks);
  add(r.duplicated_acks);
  add(r.consistency_violations);
  add(r.accounting_ok ? 1 : 0);
  add(r.digest_ok ? 1 : 0);
  return s + tail;
}

}  // namespace memfss::rt
