// kv_small and kv_ec_large: the served KV stack, driven as
// netio::NetClient -> rt::TcpServer -> rt::RuntimeServer ->
// rt::ShardedStore / rt::ec -> erasure.
//
// Load is a closed loop from one client thread. Each run alternates two
// timed phases in short blocks, so a burst of host interference lands
// in a few blocks of both, and the run keeps what the host did not
// disturb (calm blocks, steal-free latency windows; see README.md):
//   throughput: a pipelined window of kKvConnections x kPerConnection
//     requests, refilled one request per response (never lockstep);
//   latency: one connection, one request in flight.
// Op streams, request frames and a pool of distinct payloads are built
// during set-up; a request is its pre-encoded header, a patched request
// id and checksum, and a pool payload.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "erasure/reed_solomon.hpp"
#include "netio/client.hpp"
#include "netio/frame.hpp"
#include "rt/ec.hpp"
#include "rt/metrics_sink.hpp"
#include "rt/opstream.hpp"
#include "rt/server.hpp"
#include "rt/sharded_store.hpp"
#include "rt/tcp_server.hpp"
#include "rt/thread_pool.hpp"

namespace perfbench {

namespace {

using namespace memfss;

constexpr std::size_t kPerConnection = 8;  // requests in flight per conn
constexpr std::size_t kWindow = kKvConnections * kPerConnection;
constexpr std::size_t kLostAfter = 1u << 14;  // Inflight horizon, in ids
constexpr std::size_t kShards = 8;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
constexpr double kBlockS = 0.5;  // one throughput or latency block
constexpr double kStealWindowS = 0.1;  // latency samples' steal window
// makespan_s on the kv workloads: one blocking caller (concurrency 1,
// like a workflow task doing POSIX I/O) issuing this many requests.
constexpr double kJobOps = 10000;
constexpr const char* kToken = "perfbench";

struct KvShape {
  std::string name;
  std::size_t value_bytes;
  double get_fraction;
  double zipf_theta;
  std::size_t keys;
  bool ec;                 ///< the tenant stores RS(4,2) stripes
  std::size_t pool;        ///< distinct payloads (<= 64: one mask bit each)
  std::size_t stream_ops;  ///< op stream length, replayed cyclically
  Bytes capacity;
};

// 16384 keys x 128 B fit in L2; ~6k keys x 64 KiB x 1.5 (RS(4,2)) are
// well above the last-level cache.
const KvShape kSmall{"kv_small", 128, 0.9, 0.99, 16384, false, 64, 1u << 17,
                     64 * units::MiB};
const KvShape kEcLarge{"kv_ec_large", 64 * 1024, 0.5, 0.0, 6144, true, 32,
                       1u << 14, 1 * units::GiB};

const KvShape& shape_of(const std::string& name) {
  return name == kSmall.name ? kSmall : kEcLarge;
}

std::uint32_t byte_sum(const std::uint8_t* p, std::size_t n) {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < n; ++i) s += p[i];
  return static_cast<std::uint32_t>(s % 65521u);
}

std::uint32_t get_le32(const std::uint8_t* p) {
  return p[0] | (p[1] << 8) | (p[2] << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct Payload {
  std::vector<std::uint8_t> bytes;
  std::uint64_t checksum = 0;  ///< kvstore::Blob checksum (what GET echoes)
  std::uint32_t sum = 0;       ///< byte sum mod 65521 (frame checksum part)
};

/// Request headers of one op sequence, encoded once: frame header and
/// body up to the key, with request id 0 and the checksum field zeroed.
struct FrameSet {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> offset;  ///< op i: [offset[i], offset[i+1])
  std::vector<std::uint32_t> sum;     ///< body byte sum, mod 65521
};

constexpr std::size_t kIdOffset = netio::kHeaderLen + 8;
constexpr std::size_t kSumOffset = netio::kHeaderLen + netio::kChecksumOffset;

FrameSet encode_headers(const std::vector<rt::GenOp>& ops,
                        const std::vector<std::string>& keys,
                        std::uint32_t tenant, std::size_t value_bytes) {
  FrameSet fs;
  fs.offset.reserve(ops.size() + 1);
  fs.sum.reserve(ops.size());
  std::vector<std::uint8_t> one;
  for (const rt::GenOp& g : ops) {
    const std::size_t at = fs.bytes.size();
    fs.offset.push_back(static_cast<std::uint32_t>(at));
    const bool put = g.type == rt::Op::Type::put;
    // encode_frame reserves exactly what it appends, so appending many
    // frames to one buffer would reallocate on every call.
    one.clear();
    netio::encode_frame(put ? netio::NetClient::make_put(0, tenant,
                                                         keys[g.key_index], {})
                            : netio::NetClient::make_get(0, tenant,
                                                         keys[g.key_index]),
                        one);
    fs.bytes.insert(fs.bytes.end(), one.begin(), one.end());
    std::uint8_t* f = fs.bytes.data() + at;
    f[kSumOffset] = f[kSumOffset + 1] = 0;
    if (put) {  // the payload follows at send time
      const auto v = static_cast<std::uint32_t>(value_bytes);
      put_le32(f + 4, get_le32(f + 4) + v);       // body_len
      put_le32(f + netio::kHeaderLen + 20, v);  // value_len
    }
    fs.sum.push_back(byte_sum(f + netio::kHeaderLen,
                              fs.bytes.size() - at - netio::kHeaderLen));
  }
  fs.offset.push_back(static_cast<std::uint32_t>(fs.bytes.size()));
  return fs;
}

/// One request in flight.
struct Pending {
  std::uint32_t key = 0;
  bool put = false;
  std::uint8_t payload = 0;  ///< pool index a put carried
  std::uint8_t conn = 0;
  double sent_us = 0.0;      ///< traced runs: span start
};

/// The servers of one run, started and stopped together. Members are
/// destroyed bottom-up: listener first, store last.
struct Stack {
  rt::TenantRegistry tenants;
  std::uint32_t tenant = 0;
  std::unique_ptr<rt::ShardedStore> store;
  std::unique_ptr<rt::RuntimeServer> server;
  std::unique_ptr<rt::TcpServer> tcp;

  void start_server() {
    rt::RuntimeServer::Options so;
    so.threads = kKvWorkers;
    so.tenants = &tenants;
    server = std::make_unique<rt::RuntimeServer>(*store, so);
    rt::TcpServer::Options to;
    to.reactors = kKvReactors;
    tcp = std::make_unique<rt::TcpServer>(*server, to);
  }
  void stop_server() {
    tcp.reset();
    server.reset();
  }
};

class KvBench {
 public:
  KvBench(const KvShape& shape, std::uint64_t seed, Tally& tally)
      : shape_(shape), seed_(seed), tally_(tally) {}

  const KvShape& shape() const { return shape_; }
  Stack& stack() { return *st_; }

  /// Everything before timing: payload pool, op stream, request frames,
  /// servers, connections, and one put of every key. Returns seconds.
  double setup() {
    const auto t0 = Clock::now();
    teardown();
    st_ = std::make_unique<Stack>();
    if (shape_.ec) {
      rt::TenantConfig tc;
      tc.name = "ec";
      tc.rs = {4, 2};
      st_->tenant = st_->tenants.register_tenant(tc).value();
    }

    std::uint64_t x = seed_ ^ 0x70a1u;
    pool_.assign(shape_.pool, {});
    checksum_to_pool_.clear();
    for (std::size_t i = 0; i < shape_.pool; ++i) {
      Payload& p = pool_[i];
      p.bytes.resize(shape_.value_bytes);
      for (std::size_t b = 0; b < p.bytes.size(); b += 8) {
        const std::uint64_t v = splitmix(x);
        std::memcpy(p.bytes.data() + b, &v,
                    std::min<std::size_t>(8, p.bytes.size() - b));
      }
      p.checksum = kvstore::Blob::materialized(p.bytes).checksum();
      p.sum = byte_sum(p.bytes.data(), p.bytes.size());
      checksum_to_pool_[p.checksum] = static_cast<std::uint8_t>(i);
    }
    if (checksum_to_pool_.size() != shape_.pool)
      tally_.problem("payload pool checksums collide");

    keys_.clear();
    for (std::size_t k = 0; k < shape_.keys; ++k)
      keys_.push_back(rt::loadgen_key(static_cast<std::uint32_t>(k)));
    rt::StreamOptions so;
    so.seed = seed_;
    so.ops_per_thread = shape_.stream_ops;
    so.get_fraction = shape_.get_fraction;
    so.zipf_theta = shape_.zipf_theta;
    so.key_space = shape_.keys;
    stream_ = rt::generate_stream(so, 0);
    frames_ = encode_headers(stream_, keys_, st_->tenant, shape_.value_bytes);
    std::vector<rt::GenOp> fill(shape_.keys);
    for (std::size_t k = 0; k < shape_.keys; ++k)
      fill[k] = {rt::Op::Type::put, static_cast<std::uint32_t>(k)};
    const FrameSet fill_frames =
        encode_headers(fill, keys_, st_->tenant, shape_.value_bytes);
    written_.assign(shape_.keys, 0);
    last_payload_.assign(shape_.keys, 0xff);
    puts_issued_ = 0;
    cursor_ = 0;

    st_->store = std::make_unique<rt::ShardedStore>(
        rt::ShardedStore::Options{kShards, shape_.capacity, kToken, nullptr});
    st_->start_server();
    connect_all();
    check_frame_codec();
    window(fill, fill_frames, nullptr, {}, fill.size());
    return seconds_between(t0, Clock::now());
  }

  void teardown() {
    conns_.clear();
    st_.reset();
  }

  void connect_all() {
    conns_.clear();
    conns_.resize(kKvConnections);
    for (auto& c : conns_) {
      tally_.attempt();
      const std::uint64_t id = next_id_++;
      if (!c.connect(st_->tcp->port()).ok() ||
          !c.set_recv_timeout(30.0).ok() ||
          !c.send(netio::NetClient::make_auth(id, kToken)).ok()) {
        transport_failure("connect/auth");
        continue;
      }
      auto r = c.recv();
      if (!r.ok() || r.value().status != 0 || r.value().request_id != id)
        transport_failure("auth response");
    }
  }

  /// Run the pipelined window over `ops` (cyclically, from the cursor)
  /// until `until` or until `limit` ops were sent, then drain. Returns
  /// completed ops. With `spans`, every 64th request gets a span.
  std::uint64_t window(const std::vector<rt::GenOp>& ops, const FrameSet& fs,
                       SpanLog* spans, Clock::time_point until,
                       std::size_t limit = ~std::size_t{0}) {
    if (broken_) return 0;
    Inflight<Pending> inflight(kLostAfter);
    std::vector<std::size_t> open(conns_.size(), 0);
    std::size_t sent = 0, cur = &ops == &stream_ ? cursor_ : 0;
    std::uint64_t done = 0;
    const bool timed = limit == ~std::size_t{0};
    auto more = [&] {
      return sent < limit && (!timed || Clock::now() < until) && !broken_;
    };
    auto send_next = [&](std::size_t c) {
      const std::size_t i = cur;
      cur = (cur + 1) % ops.size();
      Pending p;
      const std::uint64_t id = next_id_++;
      if (spans && id % 64 == 0) p.sent_us = spans->now_us();
      if (!send_op(conns_[c], ops[i], fs, i, id, p)) return;
      p.conn = static_cast<std::uint8_t>(c);
      if (auto lost = inflight.open(id, p)) {
        tally_.fail("lost_response");
        problem("no response after " + std::to_string(kLostAfter) +
                " later requests");
        --open[lost->conn];
      }
      ++open[c];
      ++sent;
    };
    for (std::size_t c = 0; c < conns_.size(); ++c)
      while (open[c] < kPerConnection && more()) send_next(c);
    while (!broken_ && inflight.open_count() > 0) {
      for (std::size_t c = 0; c < conns_.size() && !broken_; ++c) {
        if (open[c] == 0) continue;
        auto r = conns_[c].recv();
        if (!r.ok()) {
          transport_failure("recv: " + r.error().to_string());
          break;
        }
        const netio::Frame& f = r.value();
        auto p = inflight.close(f.request_id);
        if (!p) {
          tally_.fail("duplicate_response");
          problem("response for an id not in flight");
          continue;
        }
        --open[p->conn];
        ++done;
        settle(*p, static_cast<Errc>(f.status), f.checksum, f.value_size);
        if (spans && p->sent_us > 0.0)
          spans->add("kv.window_request", p->sent_us, spans->now_us(),
                     f.request_id);
        if (more()) send_next(c);
      }
    }
    if (broken_ && inflight.open_count() > 0)
      tally_.fail("lost_response", inflight.open_count());
    if (&ops == &stream_) cursor_ = cur;
    return done;
  }

  std::uint64_t throughput(SpanLog* spans, Clock::time_point until) {
    return window(stream_, frames_, spans, until);
  }

  /// Latency samples (us) by op kind.
  struct Samples {
    std::vector<double> get_us, put_us;
    void append(const Samples& o) {
      get_us.insert(get_us.end(), o.get_us.begin(), o.get_us.end());
      put_us.insert(put_us.end(), o.put_us.begin(), o.put_us.end());
    }
  };
  struct LatencyBlock {
    Samples calm, stolen;
    std::vector<double> send_us, recv_us;  ///< traced runs only
  };

  /// Concurrency 1 on the first connection for `seconds`. Samples are
  /// filed per kStealWindowS window: calm when the host's steal counter
  /// did not move during it. With `spans`, every 8th request gets a
  /// request span with send and recv children.
  LatencyBlock latency(SpanLog* spans, double seconds) {
    LatencyBlock b;
    Samples window;
    auto w0 = Clock::now();
    double steal0 = host_steal_s();
    auto file_window = [&] {
      const double steal = host_steal_s();
      (steal == steal0 ? b.calm : b.stolen).append(window);
      window = {};
      steal0 = steal;
      w0 = Clock::now();
    };
    const auto t0 = Clock::now();
    while (!broken_ && seconds_between(t0, Clock::now()) < seconds) {
      const std::size_t i = cursor_;
      cursor_ = (cursor_ + 1) % stream_.size();
      const std::uint64_t id = next_id_++;
      Pending p;
      const auto a = Clock::now();
      const double a_us = spans ? spans->now_us() : 0.0;
      if (!send_op(conns_[0], stream_[i], frames_, i, id, p)) break;
      const auto s = Clock::now();
      const double s_us = spans ? spans->now_us() : 0.0;
      auto r = conns_[0].recv();
      const auto e = Clock::now();
      if (!r.ok()) {
        tally_.fail("lost_response");
        transport_failure("recv: " + r.error().to_string());
        break;
      }
      const netio::Frame& f = r.value();
      if (f.request_id != id) {
        tally_.fail("duplicate_response");
        transport_failure("latency phase: response id does not match");
        break;
      }
      settle(p, static_cast<Errc>(f.status), f.checksum, f.value_size);
      const double us = seconds_between(a, e) * 1e6;
      (p.put ? window.put_us : window.get_us).push_back(us);
      if (spans) {
        b.send_us.push_back(seconds_between(a, s) * 1e6);
        b.recv_us.push_back(seconds_between(s, e) * 1e6);
        if (id % 8 == 0) {
          const double e_us = spans->now_us();
          const long req =
              spans->add(p.put ? "kv.put" : "kv.get", a_us, e_us, id);
          spans->add("netio.send", a_us, s_us, id, req);
          spans->add("netio.recv", s_us, e_us, id, req);
        }
      }
      if (seconds_between(w0, e) >= kStealWindowS) file_window();
    }
    file_window();
    return b;
  }

  /// After quiesce: used() equals the shards' recomputed sum and stays
  /// within capacity(). Returns used() / live user bytes.
  double check_quiesced() {
    const auto& store = *st_->store;
    Bytes recomputed = 0;
    for (std::size_t s = 0; s < store.shard_count(); ++s)
      recomputed += store.shard_recomputed_used(s);
    if (store.used() != recomputed)
      problem("used() " + std::to_string(store.used()) +
              " != recomputed " + std::to_string(recomputed));
    if (store.used() > store.capacity()) problem("used() exceeds capacity()");
    return static_cast<double>(store.used()) /
           static_cast<double>(shape_.keys * shape_.value_bytes);
  }

  // --- in-process path (RuntimeServer::submit_async, no socket) --------

  struct Completions {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::pair<std::uint64_t, rt::OpResult>> done;
  };

  /// The same stream and window through submit_async. Returns ops/s.
  double inproc_window(rt::RuntimeServer& server, double seconds) {
    Completions q;
    Inflight<Pending> inflight(kLostAfter);
    const auto t0 = Clock::now();
    const auto until = after(t0, seconds);
    std::uint64_t done = 0;
    auto submit = [&] {
      const std::uint64_t id = next_id_++;
      Pending p;
      server.submit_async(kToken, make_op(p), [&q, id](rt::OpResult r) {
        std::lock_guard lk(q.mu);
        q.done.emplace_back(id, std::move(r));
        q.cv.notify_one();
      });
      if (inflight.open(id, p)) {
        tally_.fail("lost_response");
        problem("in-process op never completed");
      }
    };
    for (std::size_t i = 0; i < kWindow; ++i) submit();
    std::vector<std::pair<std::uint64_t, rt::OpResult>> batch;
    while (inflight.open_count() > 0) {
      {
        std::unique_lock lk(q.mu);
        q.cv.wait(lk, [&] { return !q.done.empty(); });
        batch.swap(q.done);
      }
      for (auto& [id, r] : batch) {
        auto p = inflight.close(id);
        if (!p) {
          tally_.fail("duplicate_response");
          problem("in-process completion for an id not in flight");
          continue;
        }
        ++done;
        settle(*p, r.code, r.value.checksum(),
               static_cast<std::uint32_t>(r.value.size()));
        if (Clock::now() < until) submit();
      }
      batch.clear();
    }
    return static_cast<double>(done) / seconds_between(t0, Clock::now());
  }

  /// Concurrency 1 through submit_async; returns latency samples (us).
  std::vector<double> inproc_latency(rt::RuntimeServer& server,
                                     double seconds) {
    std::vector<double> us;
    const auto t0 = Clock::now();
    while (seconds_between(t0, Clock::now()) < seconds) {
      Pending p;
      rt::Op op = make_op(p);
      const auto a = Clock::now();
      rt::OpResult r = server.submit(kToken, std::move(op)).get();
      us.push_back(seconds_between(a, Clock::now()) * 1e6);
      settle(p, r.code, r.value.checksum(),
             static_cast<std::uint32_t>(r.value.size()));
    }
    return us;
  }

  // --- inputs for the layer probes --------------------------------------

  const std::vector<rt::GenOp>& stream() const { return stream_; }
  const std::vector<std::string>& keys() const { return keys_; }
  const std::vector<std::uint8_t>& payload(std::size_t i) const {
    return pool_[i % pool_.size()].bytes;
  }
  std::uint64_t payload_checksum(std::size_t i) const {
    return pool_[i % pool_.size()].checksum;
  }

 private:
  /// Pool index for the next put to `key`: rotates through the pool and
  /// never repeats the key's previous payload, so overwrites change
  /// content. Records it as a value the key may now hold.
  std::uint8_t choose_payload(std::uint32_t key) {
    auto idx = static_cast<std::uint8_t>(puts_issued_++ % pool_.size());
    if (idx == last_payload_[key])
      idx = static_cast<std::uint8_t>((idx + 1) % pool_.size());
    last_payload_[key] = idx;
    written_[key] |= std::uint64_t{1} << idx;
    return idx;
  }

  /// Request `i` of `fs` into sendbuf_: its header with `id` patched
  /// in, then `pl` for a put, and the body checksum the codec expects
  /// (the byte sum mod 65521, so the parts' sums add up).
  void assemble(const FrameSet& fs, std::size_t i, std::uint64_t id,
                const Payload* pl) {
    const std::uint8_t* hdr = fs.bytes.data() + fs.offset[i];
    sendbuf_.assign(hdr, hdr + (fs.offset[i + 1] - fs.offset[i]));
    std::uint64_t sum = fs.sum[i];
    for (int b = 0; b < 8; ++b) {
      sendbuf_[kIdOffset + b] = static_cast<std::uint8_t>(id >> (8 * b));
      sum += sendbuf_[kIdOffset + b];
    }
    if (pl) {
      sum += pl->sum;
      sendbuf_.insert(sendbuf_.end(), pl->bytes.begin(), pl->bytes.end());
    }
    sum %= 65521u;
    const auto cks = static_cast<std::uint16_t>(sum == 0 ? 0xffff : sum);
    sendbuf_[kSumOffset] = static_cast<std::uint8_t>(cks);
    sendbuf_[kSumOffset + 1] = static_cast<std::uint8_t>(cks >> 8);
  }

  bool send_op(netio::NetClient& c, const rt::GenOp& g, const FrameSet& fs,
               std::size_t i, std::uint64_t id, Pending& p) {
    tally_.attempt();
    p.key = g.key_index;
    p.put = g.type == rt::Op::Type::put;
    if (p.put) p.payload = choose_payload(p.key);
    assemble(fs, i, id, p.put ? &pool_[p.payload] : nullptr);
    if (!c.send_raw(sendbuf_).ok()) {
      tally_.fail("lost_response");
      transport_failure("send");
      return false;
    }
    return true;
  }

  rt::Op make_op(Pending& p) {
    tally_.attempt();
    const rt::GenOp& g = stream_[cursor_];
    cursor_ = (cursor_ + 1) % stream_.size();
    p.key = g.key_index;
    p.put = g.type == rt::Op::Type::put;
    rt::Op op;
    op.type = g.type;
    op.key = keys_[g.key_index];
    op.tenant = st_->tenant;
    if (p.put) {
      p.payload = choose_payload(p.key);
      op.value = kvstore::Blob::materialized(pool_[p.payload].bytes);
    }
    return op;
  }

  /// The oracle for one answered op.
  void settle(const Pending& p, Errc code, std::uint64_t checksum,
              std::uint32_t value_size) {
    if (code != Errc::ok) {
      tally_.fail(errc_name(code));
      return;
    }
    if (p.put) return;
    const auto it = checksum_to_pool_.find(checksum);
    if (value_size != shape_.value_bytes || it == checksum_to_pool_.end() ||
        !((written_[p.key] >> it->second) & 1)) {
      tally_.fail("bad_get_checksum");
      problem("GET of " + keys_[p.key] +
              " returned a value never written to it");
    }
  }

  void transport_failure(const std::string& what) {
    broken_ = true;
    problem("transport: " + what);
  }

  void problem(std::string what) {
    if (++problems_ <= 5) tally_.problem(std::move(what));
    else if (problems_ == 6) tally_.problem("(further problems not listed)");
  }

  /// Decode the first assembled GET and PUT with the protocol's own
  /// decoder: the header patching must yield frames the server accepts.
  void check_frame_codec() {
    for (const auto type : {rt::Op::Type::get, rt::Op::Type::put}) {
      const auto it =
          std::find_if(stream_.begin(), stream_.end(),
                       [&](const rt::GenOp& g) { return g.type == type; });
      if (it == stream_.end()) continue;
      const auto i = static_cast<std::size_t>(it - stream_.begin());
      const bool put = type == rt::Op::Type::put;
      const std::uint64_t id = 0x0123456789abcdefull;
      assemble(frames_, i, id, put ? &pool_[1] : nullptr);
      netio::FrameDecoder d;
      d.feed(sendbuf_);
      netio::Frame f;
      if (d.next(f) != netio::Decode::frame || f.request_id != id ||
          f.key != keys_[it->key_index] ||
          f.value != (put ? pool_[1].bytes : std::vector<std::uint8_t>{}))
        problem("assembled request frame does not decode: " + d.error());
    }
  }

  const KvShape& shape_;
  std::uint64_t seed_;
  Tally& tally_;
  std::unique_ptr<Stack> st_;
  std::vector<netio::NetClient> conns_;
  std::vector<Payload> pool_;
  std::unordered_map<std::uint64_t, std::uint8_t> checksum_to_pool_;
  std::vector<std::string> keys_;
  std::vector<rt::GenOp> stream_;
  FrameSet frames_;
  std::vector<std::uint64_t> written_;  ///< per key: pool indices written
  std::vector<std::uint8_t> last_payload_;
  std::uint64_t puts_issued_ = 0;
  std::size_t cursor_ = 0;
  std::uint64_t next_id_ = 1;
  std::vector<std::uint8_t> sendbuf_;
  bool broken_ = false;
  int problems_ = 0;
};

double pct(std::vector<double> v, double q, Tally& tally, const char* what) {
  auto r = percentile(v, q);
  if (!r) {
    tally.problem(std::string("too few samples for a percentile of ") + what);
    return 0.0;
  }
  return *r;
}

double since_us(Clock::time_point t0) {
  return seconds_between(t0, Clock::now()) * 1e6;
}

/// Repeat `body` (which returns units of work done) for about `seconds`;
/// returns nanoseconds per unit, the median over five slices.
template <typename F>
double ns_per_unit(double seconds, F&& body) {
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t units = 0;
    const auto t0 = Clock::now();
    do units += body();
    while (seconds_between(t0, Clock::now()) < seconds / 5);
    per.push_back(seconds_between(t0, Clock::now()) * 1e9 /
                  static_cast<double>(units));
  }
  return median(per);
}

// --- layer probes: direct calls into one layer, outside any server ------

void probe_netio(KvBench& kb, std::vector<Metric>& m) {
  std::vector<netio::Frame> frames;
  const auto& s = kb.stream();
  for (std::size_t i = 0; i < 256 && i < s.size(); ++i) {
    const auto& key = kb.keys()[s[i].key_index];
    frames.push_back(s[i].type == rt::Op::Type::put
                         ? netio::NetClient::make_put(i + 1, 0, key,
                                                      kb.payload(i))
                         : netio::NetClient::make_get(i + 1, 0, key));
  }
  // One frame per buffer, as the server encodes its responses.
  std::vector<std::uint8_t> buf;
  m.push_back({"netio.encode_ns", ns_per_unit(0.2, [&] {
                 for (const auto& f : frames) {
                   buf.clear();
                   netio::encode_frame(f, buf);
                 }
                 return frames.size();
               }), "ns"});
  std::vector<std::uint8_t> wire;
  for (const auto& f : frames) {
    const auto one = netio::encode(f);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  netio::Frame out;
  m.push_back({"netio.decode_ns", ns_per_unit(0.2, [&] {
                 netio::FrameDecoder d;
                 d.feed(wire);
                 std::size_t n = 0;
                 while (d.next(out) == netio::Decode::frame) ++n;
                 return n;
               }), "ns"});
}

void probe_metrics(std::vector<Metric>& m) {
  // The MetricsSink calls RuntimeServer::submit_async makes for one
  // executed op: verb counter, latency histogram, tenant counter, and
  // queue-depth gauge.
  rt::MetricsSink sink;
  auto one_op = [&sink] {
    sink.count("rt.ops.get");
    sink.observe("rt.op.latency_s", 2e-5);
    sink.count_tenant("default", "ops");
    sink.gauge_set("rt.queue.depth", 1.0);
    return std::size_t{1};
  };
  m.push_back({"rt.metrics.update_ns", ns_per_unit(0.2, one_op), "ns"});
  std::vector<double> per_thread(3);
  {
    std::vector<std::thread> th;
    for (std::size_t t = 0; t < per_thread.size(); ++t)
      th.emplace_back([&, t] { per_thread[t] = ns_per_unit(0.2, one_op); });
    for (auto& t : th) t.join();
  }
  m.push_back({"rt.metrics.update_ns_3t", median(per_thread), "ns"});
}

void probe_pool(std::vector<Metric>& m, Tally& tally) {
  rt::ThreadPool pool({kKvWorkers, 1024});
  std::vector<double> us;
  std::mutex mu;
  std::condition_variable cv;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; seconds_between(t0, Clock::now()) < 0.3; ++i) {
    bool ran = false;
    double handoff = 0.0;
    const auto posted = Clock::now();
    tally.attempt();
    if (!pool.try_post(i, [&] {
          const double h = since_us(posted);
          std::lock_guard lk(mu);
          handoff = h;
          ran = true;
          cv.notify_one();
        })) {
      tally.fail("pool_rejected");
      continue;
    }
    std::unique_lock lk(mu);
    cv.wait(lk, [&] { return ran; });
    us.push_back(handoff);
  }
  m.push_back(
      {"rt.pool.handoff_us", pct(us, 0.5, tally, "pool handoff"), "us"});
}

void probe_store(KvBench& kb, std::vector<Metric>& m, Tally& tally) {
  // A fresh store with (at most) 1024 of the workload's keys.
  const std::size_t n = std::min<std::size_t>(1024, kb.keys().size());
  rt::ShardedStore store({kShards, kb.shape().capacity, kToken, nullptr});
  for (std::size_t k = 0; k < n; ++k) {
    tally.attempt();
    if (!store.put(kToken, kb.keys()[k],
                   kvstore::Blob::materialized(kb.payload(k))).ok())
      tally.fail("store_put");
  }
  // A put consumes its blob, so each slice builds a batch of blobs
  // untimed and times only the puts.
  std::size_t next = 0;
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    double t = 0.0;
    std::size_t puts = 0;
    const auto r0 = Clock::now();
    while (seconds_between(r0, Clock::now()) < 0.06) {
      std::vector<kvstore::Blob> blobs;
      for (std::size_t i = 0; i < 64; ++i)
        blobs.push_back(kvstore::Blob::materialized(kb.payload(next + i + 1)));
      const auto t0 = Clock::now();
      for (auto& b : blobs) {
        tally.attempt();
        if (!store.put(kToken, kb.keys()[next++ % n], std::move(b)).ok())
          tally.fail("store_put");
      }
      t += seconds_between(t0, Clock::now());
      puts += blobs.size();
    }
    per.push_back(t * 1e9 / static_cast<double>(puts));
  }
  m.push_back({"rt.store.put_ns", median(per), "ns"});
  m.push_back({"rt.store.get_ns", ns_per_unit(0.3, [&] {
                 for (std::size_t i = 0; i < 64; ++i) {
                   tally.attempt();
                   if (!store.get(kToken, kb.keys()[next++ % n]).ok())
                     tally.fail("store_get");
                 }
                 return std::size_t{64};
               }), "ns"});
}

void probe_ec(KvBench& kb, std::vector<Metric>& m, Tally& tally) {
  const std::size_t n = std::min<std::size_t>(256, kb.keys().size());
  rt::ShardedStore store({kShards, kb.shape().capacity, kToken, nullptr});
  const erasure::ReedSolomon rs(4, 2);
  std::vector<kvstore::Blob> values;
  for (std::size_t k = 0; k < n; ++k)
    values.push_back(kvstore::Blob::materialized(kb.payload(k)));
  std::vector<double> put_us, get_us, rec_us;
  for (std::size_t k = 0; k < n; ++k) {
    tally.attempt();
    const auto t0 = Clock::now();
    const bool ok =
        rt::ec::put(store, kToken, kb.keys()[k], values[k], rs).ok();
    put_us.push_back(since_us(t0));
    if (!ok) tally.fail("ec_put");
  }
  auto timed_get = [&](std::size_t k, std::vector<double>& out,
                       bool expect_rebuild) {
    tally.attempt();
    bool rebuilt = false;
    const auto t0 = Clock::now();
    auto r = rt::ec::get(store, kToken, kb.keys()[k], nullptr, &rebuilt);
    out.push_back(since_us(t0));
    if (!r.ok() || r.value().checksum() != kb.payload_checksum(k) ||
        rebuilt != expect_rebuild) {
      tally.fail("ec_get");
      tally.problem("rt::ec::get returned a wrong value for " + kb.keys()[k]);
    }
  };
  for (std::size_t k = 0; k < n; ++k) timed_get(k, get_us, false);
  for (std::size_t k = 0; k < n; ++k) {
    (void)store.del(kToken, rt::ec::shard_key(kb.keys()[k], 0));
    timed_get(k, rec_us, true);
  }
  m.push_back({"rt.ec.put_us", pct(put_us, 0.5, tally, "ec put"), "us"});
  m.push_back({"rt.ec.get_us", pct(get_us, 0.5, tally, "ec get"), "us"});
  m.push_back({"rt.ec.reconstruct_us", pct(rec_us, 0.5, tally, "ec rebuild"),
               "us"});
}

void probe_erasure(std::vector<Metric>& m, Tally& tally) {
  // RS(4,2) with 16 KiB shards: a 64 KiB stripe.
  const erasure::ReedSolomon rs(4, 2);
  constexpr std::size_t kShard = 16 * 1024;
  std::vector<std::uint8_t> data(4 * kShard);
  std::uint64_t x = 42;
  for (auto& b : data) b = static_cast<std::uint8_t>(splitmix(x));
  std::vector<std::uint8_t> arena(6 * kShard);
  std::vector<std::uint8_t*> ptrs(6);
  for (std::size_t i = 0; i < 6; ++i) ptrs[i] = arena.data() + i * kShard;
  const double enc_ns = ns_per_unit(0.2, [&] {
    (void)rs.encode_into(data, ptrs.data(), kShard);
    return std::size_t{1};
  });
  std::vector<std::vector<std::uint8_t>> shards(6);
  for (std::size_t i = 0; i < 6; ++i)
    shards[i].assign(ptrs[i], ptrs[i] + kShard);
  shards[0].clear();  // two data shards lost: decode needs both parities
  shards[2].clear();
  tally.attempt();
  if (auto r = rs.decode(shards, data.size()); !r.ok() || r.value() != data) {
    tally.fail("rs_decode");
    tally.problem("Reed-Solomon decode did not restore the stripe");
  }
  const double dec_ns = ns_per_unit(0.2, [&] {
    (void)rs.decode(shards, data.size());
    return std::size_t{1};
  });
  const double bytes = static_cast<double>(data.size());
  m.push_back({"erasure.encode_GBps", bytes / enc_ns, "GB/s"});
  m.push_back({"erasure.decode_GBps", bytes / dec_ns, "GB/s"});
}

void add(std::vector<Metric>& m, const char* name, double v, const char* unit) {
  m.push_back({name, v, unit});
}

std::uint64_t shed(const rt::RuntimeServer& s) {
  return s.metrics().counter_value("rt.ops.overloaded") +
         s.metrics().counter_value("rt.ops.rejected");
}

/// The traced run of one kv shape: per-layer metrics and spans.
void kv_traced(const KvShape& shape, std::uint64_t seed, double seconds,
               RunOutput& out, bool own_workload) {
  Tally& tally = out.tally;
  SpanLog* spans = &out.spans;
  auto& m = out.metrics;
  KvBench kb(shape, seed, tally);
  const double setup_t0 = spans->now_us();
  kb.setup();
  spans->add("perfbench.setup", setup_t0, spans->now_us());
  Stack& st = kb.stack();
  const auto t0 = Clock::now();
  auto deadline = [&](double share) {
    return after(t0, seconds * share);
  };

  // Throughput, untraced and traced blocks alternating; the server's
  // byte counters over the untraced blocks give wire bytes per op.
  std::vector<double> plain, traced;
  std::uint64_t ops = 0, wire0 = 0, wire = 0;
  auto wire_bytes = [&] {
    return st.server->metrics().counter_value("rt.net.bytes_in") +
           st.server->metrics().counter_value("rt.net.bytes_out");
  };
  for (int i = 0; Clock::now() < deadline(0.4); ++i) {
    const bool tr = i % 2 == 1;
    const auto b0 = Clock::now();
    wire0 = wire_bytes();
    const double tb = spans->now_us();
    const auto n = kb.throughput(tr ? spans : nullptr,
                                 after(b0, kBlockS));
    (tr ? traced : plain).push_back(static_cast<double>(n) /
                                    seconds_between(b0, Clock::now()));
    if (tr) spans->add("kv.throughput_block", tb, spans->now_us());
    else {
      ops += n;
      wire += wire_bytes() - wire0;
    }
  }
  const obs::MetricsSnapshot snap = st.server->metrics().snapshot();
  const obs::MetricRow* queue = snap.find("rt.queue.depth");
  const auto decode =
      st.server->metrics().histogram_summary("rt.net.frame_decode_s");
  std::uint64_t shed_ops = shed(*st.server);

  // Latency on a fresh server pair, so its op histogram holds only
  // concurrency-1 ops.
  st.stop_server();
  st.start_server();
  kb.connect_all();
  std::vector<double> send_us, recv_us;
  while (Clock::now() < deadline(0.7)) {
    const auto b = kb.latency(spans, kBlockS);
    send_us.insert(send_us.end(), b.send_us.begin(), b.send_us.end());
    recv_us.insert(recv_us.end(), b.recv_us.begin(), b.recv_us.end());
  }
  const auto op_lat = st.server->metrics().histogram_summary("rt.op.latency_s");
  shed_ops += shed(*st.server);

  // In-process: same stream and window, then concurrency 1, through the
  // same RuntimeServer with the listener closed.
  st.tcp.reset();
  double tp = spans->now_us();
  const double inproc_ops = kb.inproc_window(*st.server, seconds * 0.1);
  spans->add("probe.rt.inproc_window", tp, spans->now_us());
  tp = spans->now_us();
  auto inproc_us = kb.inproc_latency(*st.server, seconds * 0.1);
  spans->add("probe.rt.inproc_latency", tp, spans->now_us());
  shed_ops += shed(*st.server);
  kb.check_quiesced();

  add(m, "netio.wire_bytes_per_op",
      ops ? static_cast<double>(wire) / static_cast<double>(ops) : 0.0, "B");
  add(m, "netio.send_us", pct(send_us, 0.5, tally, "send"), "us");
  add(m, "netio.recv_wait_us", pct(recv_us, 0.5, tally, "recv"), "us");
  add(m, "rt.server.inproc_ops_per_sec", inproc_ops, "1/s");
  add(m, "rt.server.inproc_p50_us", pct(inproc_us, 0.5, tally, "inproc"), "us");
  add(m, "rt.server.op_p50_us", op_lat.p50 * 1e6, "us");
  add(m, "rt.server.op_p99_us", op_lat.p99 * 1e6, "us");
  add(m, "rt.net.frame_decode_us", decode.mean() * 1e6, "us");
  add(m, "rt.server.queue_depth_peak", queue ? queue->peak : 0.0, "count");
  add(m, "rt.admission.shed", static_cast<double>(shed_ops), "count");
  if (shed_ops) tally.problem("admission shed ops on an unsaturated server");

  struct Probe {
    const char* name;
    std::function<void()> run;
  };
  const Probe probes[] = {
      {"probe.netio.codec", [&] { probe_netio(kb, m); }},
      {"probe.rt.metrics", [&] { probe_metrics(m); }},
      {"probe.rt.pool", [&] { probe_pool(m, tally); }},
      {"probe.rt.store", [&] { probe_store(kb, m, tally); }},
      {"probe.rt.ec", [&] { probe_ec(kb, m, tally); }},
      {"probe.erasure", [&] { probe_erasure(m, tally); }},
  };
  for (const Probe& p : probes) {
    const double a = spans->now_us();
    p.run();
    spans->add(p.name, a, spans->now_us());
  }
  kb.teardown();

  if (own_workload)
    add(m, "trace.overhead_frac", median(plain) / median(traced) - 1.0,
        "ratio");
}

}  // namespace

bool is_kv_workload(const std::string& name) {
  return name == kSmall.name || name == kEcLarge.name;
}

void run_kv(const RunConfig& cfg, RunOutput& out) {
  const KvShape& shape = shape_of(cfg.workload);
  if (cfg.trace) {
    kv_traced(shape, cfg.seed, cfg.seconds, out, true);
    return;
  }
  Tally& tally = out.tally;
  KvBench kb(shape, cfg.seed, tally);
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(kb.setup());
  std::printf("  setup: %.3fs %.3fs %.3fs\n", setups[0], setups[1], setups[2]);

  // Throughput blocks keep their host steal rate; latency samples are
  // pooled over the run by whether their window saw steal.
  std::vector<double> rates, t_steal;
  KvBench::Samples calm, all;
  const auto t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < cfg.seconds) {
    const auto b0 = Clock::now();
    const double s0 = host_steal_s();
    const auto n = kb.throughput(nullptr, after(b0, kBlockS));
    const double tb = seconds_between(b0, Clock::now());
    rates.push_back(static_cast<double>(n) / tb);
    t_steal.push_back((host_steal_s() - s0) / tb);
    const auto b = kb.latency(nullptr, kBlockS);
    calm.append(b.calm);
    all.append(b.calm);
    all.append(b.stolen);
  }
  const auto calm_t = calm_blocks(t_steal);
  std::vector<double> kept_rates;
  for (const auto i : calm_t) kept_rates.push_back(rates[i]);
  // Percentiles over the calm samples, or over all of them when too few
  // calm ones remain for a p99 (ten beyond it).
  const bool enough = samples_beyond(calm.get_us.size(), 0.99) >= 10 &&
                      (shape.get_fraction == 1.0 ||
                       samples_beyond(calm.put_us.size(), 0.99) >= 10);
  KvBench::Samples& lat = enough ? calm : all;
  std::printf("  throughput blocks kept: %zu of %zu; latency samples kept: "
              "%zu of %zu%s\n",
              calm_t.size(), rates.size(),
              calm.get_us.size() + calm.put_us.size(),
              all.get_us.size() + all.put_us.size(),
              enough ? "" : " (too few calm: all used)");
  double sum_us = 0.0;
  for (const double us : lat.get_us) sum_us += us;
  for (const double us : lat.put_us) sum_us += us;
  const double job_s = kJobOps * sum_us /
                       static_cast<double>(lat.get_us.size() +
                                           lat.put_us.size()) / 1e6;
  const double bytes_ratio = kb.check_quiesced();
  kb.teardown();

  const double ops_per_sec = median(kept_rates);
  const double pass_s = static_cast<double>(shape.stream_ops) / ops_per_sec;
  auto& m = out.metrics;
  add(m, "ops_per_sec", ops_per_sec, "1/s");
  add(m, "get_p50_us", pct(lat.get_us, 0.5, tally, "GET"), "us");
  add(m, "get_p99_us", pct(lat.get_us, 0.99, tally, "GET"), "us");
  add(m, "put_p50_us", pct(lat.put_us, 0.5, tally, "PUT"), "us");
  add(m, "put_p99_us", pct(lat.put_us, 0.99, tally, "PUT"), "us");
  add(m, "bytes_per_user_byte", bytes_ratio, "ratio");
  add(m, "wall_s", pass_s, "s");
  add(m, "makespan_s", job_s, "s");
  add(m, "setup_s", median(setups), "s");
}

void kv_layer_metrics(std::uint64_t seed, double seconds, RunOutput& out) {
  kv_traced(kSmall, seed, seconds, out, false);
}

}  // namespace perfbench
