// End-to-end tests for the TCP serving path (DESIGN.md §13): a real
// rt::TcpServer on a loopback ephemeral port, exercised by blocking
// netio::NetClient connections.
//
//   - pipelined multithreaded clients with request-id accounting
//     (zero lost, zero duplicated responses);
//   - linearizability-lite replay: the 1-thread socket run of a
//     seed-deterministic stream produces the *identical* result digest
//     as the in-process run of the same stream;
//   - slow-client eviction: a client that pipelines requests but never
//     reads responses is disconnected once the server-side write
//     buffer passes its bound;
//   - graceful drain: shutdown() with frames in flight answers every
//     one of them before the connection closes;
//   - negative paths: malformed magic and oversized length prefixes
//     get one protocol-error frame then EOF; a client pushing
//     response-kind frames is treated the same; AUTH gates ops.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "netio/client.hpp"
#include "netio/frame.hpp"
#include "rt/loadgen.hpp"
#include "rt/sharded_store.hpp"
#include "rt/server.hpp"
#include "rt/tcp_server.hpp"
#include "rt/tenant_registry.hpp"

namespace memfss::rt {
namespace {

using netio::Frame;
using netio::NetClient;

struct Fixture {
  ShardedStore store;
  RuntimeServer server;
  TcpServer tcp;

  explicit Fixture(RuntimeServer::Options sopt = {},
                   TcpServer::Options topt = {},
                   ShardedStore::Options store_opt = {4, 64u << 20, "rt"})
      : store(store_opt), server(store, sopt), tcp(server, topt) {}
};

Frame expect_recv(NetClient& c) {
  auto r = c.recv();
  EXPECT_TRUE(r.ok()) << "recv failed";
  return r.ok() ? r.value() : Frame{};
}

void auth_ok(NetClient& c, std::uint64_t id = 1,
             const std::string& token = "rt") {
  ASSERT_TRUE(c.authenticate(id, token).ok());
}

TEST(RtTcp, BasicPutGetDelExistsOverOneConnection) {
  Fixture fx;
  NetClient c;
  ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());
  auth_ok(c);

  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  ASSERT_TRUE(c.send(NetClient::make_put(10, 0, "alpha", payload)).ok());
  Frame put = expect_recv(c);
  EXPECT_EQ(put.request_id, 10u);
  EXPECT_EQ(put.status, static_cast<std::uint8_t>(Errc::ok));
  EXPECT_TRUE(put.flags & netio::kFlagHasSeq);

  ASSERT_TRUE(c.send(NetClient::make_get(11, 0, "alpha")).ok());
  Frame get = expect_recv(c);
  EXPECT_EQ(get.request_id, 11u);
  EXPECT_EQ(get.status, static_cast<std::uint8_t>(Errc::ok));
  EXPECT_EQ(get.value, payload);
  EXPECT_EQ(get.value_size, payload.size());

  ASSERT_TRUE(c.send(NetClient::make_exists(12, 0, "alpha")).ok());
  Frame ex = expect_recv(c);
  EXPECT_TRUE(ex.flags & netio::kFlagFound);

  ASSERT_TRUE(c.send(NetClient::make_del(13, 0, "alpha")).ok());
  EXPECT_EQ(expect_recv(c).status, static_cast<std::uint8_t>(Errc::ok));

  ASSERT_TRUE(c.send(NetClient::make_get(14, 0, "alpha")).ok());
  EXPECT_EQ(expect_recv(c).status,
            static_cast<std::uint8_t>(Errc::not_found));
}

TEST(RtTcp, AuthGatesOpsAndTokenSticksToConnection) {
  Fixture fx;
  NetClient c;
  ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());

  // No AUTH yet: the connection token is empty, the store wants "rt".
  ASSERT_TRUE(c.send(NetClient::make_put(1, 0, "k", {1})).ok());
  EXPECT_EQ(expect_recv(c).status,
            static_cast<std::uint8_t>(Errc::permission));

  // Wrong token fails and does not stick a working one.
  ASSERT_TRUE(c.send(NetClient::make_auth(2, "wrong")).ok());
  EXPECT_EQ(expect_recv(c).status,
            static_cast<std::uint8_t>(Errc::permission));
  ASSERT_TRUE(c.send(NetClient::make_put(3, 0, "k", {1})).ok());
  EXPECT_EQ(expect_recv(c).status,
            static_cast<std::uint8_t>(Errc::permission));

  // Right token: everything after it is authorized.
  auth_ok(c, 4);
  ASSERT_TRUE(c.send(NetClient::make_put(5, 0, "k", {1})).ok());
  EXPECT_EQ(expect_recv(c).status, static_cast<std::uint8_t>(Errc::ok));
}

// The tentpole accounting property, in-test: multithreaded pipelined
// clients over several reactors, every request answered exactly once.
TEST(RtTcp, PipelinedMultithreadedClientsLoseNothing) {
  LoadgenOptions opt;
  opt.client_threads = 4;
  opt.server_threads = 2;
  opt.stream.ops_per_thread = 3000;
  opt.batch = 24;
  opt.value_size = 256;
  opt.stream.del_fraction = 0.1;
  opt.stream.key_space = 512;
  opt.stream.seed = 42;
  opt.connections_per_thread = 3;
  opt.reactors = 2;
  const auto r = run_loadgen(opt);
  const std::uint64_t total = 4u * 3000u;
  EXPECT_EQ(r.responses, total);
  EXPECT_EQ(r.lost, 0u);
  EXPECT_EQ(r.duplicated, 0u);
  EXPECT_EQ(r.transport_errors, 0u);
  EXPECT_EQ(r.puts + r.gets + r.dels + r.not_found + r.rejected +
                r.overloaded + r.errors,
            total);
  EXPECT_GT(r.bytes_in, 0u);
  EXPECT_GT(r.bytes_out, 0u);
}

// Linearizability-lite replay: one client thread, one worker, one
// connection -- the socket path must produce bit-identical results to
// the in-process path for the same seed-deterministic stream.
TEST(RtTcp, SingleThreadSocketReplayMatchesInProcessDigest) {
  LoadgenOptions base;
  base.client_threads = 1;
  base.server_threads = 1;
  base.stream.ops_per_thread = 4000;
  base.batch = 16;
  base.value_size = 128;
  base.stream.del_fraction = 0.15;
  base.stream.key_space = 1024;
  for (const std::uint64_t seed : {3u, 17u}) {
    base.stream.seed = seed;
    const auto inproc = run_loadgen(base);
    LoadgenOptions nopt = base;
    nopt.connections_per_thread = 1;
    nopt.reactors = 1;
    const auto net = run_loadgen(nopt);
    EXPECT_EQ(net.lost, 0u) << "seed " << seed;
    EXPECT_EQ(net.duplicated, 0u) << "seed " << seed;
    EXPECT_EQ(net.result_digest, inproc.result_digest) << "seed " << seed;
    EXPECT_EQ(net.puts, inproc.puts) << "seed " << seed;
    EXPECT_EQ(net.gets, inproc.gets) << "seed " << seed;
    EXPECT_EQ(net.dels, inproc.dels) << "seed " << seed;
    EXPECT_EQ(net.not_found, inproc.not_found) << "seed " << seed;
  }
}

// A client that pipelines GETs of a large value and never reads its
// responses must be disconnected, not allowed to pin server memory.
TEST(RtTcp, SlowClientIsEvicted) {
  RuntimeServer::Options sopt;
  TcpServer::Options topt;
  topt.max_write_buffer = 64 * 1024;
  topt.so_sndbuf = 4 * 1024;  // tiny socket buffer: EAGAIN fast
  Fixture fx(sopt, topt);

  NetClient writer;
  ASSERT_TRUE(writer.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(writer.set_recv_timeout(10.0).ok());
  auth_ok(writer);
  const std::vector<std::uint8_t> big(64 * 1024, 0x5a);
  ASSERT_TRUE(writer.send(NetClient::make_put(2, 0, "big", big)).ok());
  ASSERT_EQ(expect_recv(writer).status, static_cast<std::uint8_t>(Errc::ok));

  NetClient slow;
  ASSERT_TRUE(slow.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(slow.set_recv_timeout(30.0).ok());
  auth_ok(slow);
  // Pipeline far more response bytes than max_write_buffer without
  // reading any of them.
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < 64; ++i)
    netio::encode_frame(NetClient::make_get(100 + i, 0, "big"), wire);
  ASSERT_TRUE(slow.send_raw(wire).ok());

  // Do NOT read anything: ~4 MiB of responses against a 64 KiB write
  // buffer and a 4 KiB socket buffer must trip the eviction. Poll the
  // server-side counter, then confirm the connection is actually dead.
  bool evicted = false;
  for (int i = 0; i < 2000 && !evicted; ++i) {
    evicted = fx.server.metrics().counter_value(
                  "rt.net.slow_client_disconnects") >= 1;
    if (!evicted) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(evicted);
  bool disconnected = false;
  for (int i = 0; i < 4096 && !disconnected; ++i) {
    auto r = slow.recv();
    if (!r.ok()) disconnected = true;
  }
  EXPECT_TRUE(disconnected);
}

// shutdown() with pipelined frames in flight: every submitted frame is
// answered before the connection closes, and the close is an orderly
// EOF, not a reset with queued data.
TEST(RtTcp, DrainOnShutdownAnswersEveryInFlightFrame) {
  RuntimeServer::Options sopt;
  sopt.threads = 2;
  sopt.service_time = std::chrono::microseconds(500);
  Fixture fx(sopt);

  NetClient c;
  ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(30.0).ok());
  auth_ok(c);

  constexpr std::uint64_t kInFlight = 48;
  std::vector<std::uint8_t> wire;
  for (std::uint64_t i = 0; i < kInFlight; ++i)
    netio::encode_frame(
        NetClient::make_put(100 + i, 0, "k" + std::to_string(i),
                            {static_cast<std::uint8_t>(i)}),
        wire);
  ASSERT_TRUE(c.send_raw(wire).ok());

  // Shut down while those ops are (very likely) still in worker
  // queues; drain must answer all of them regardless of timing.
  std::thread stopper([&] { fx.tcp.shutdown(); });
  std::vector<bool> answered(kInFlight, false);
  for (std::uint64_t i = 0; i < kInFlight; ++i) {
    auto r = c.recv();
    ASSERT_TRUE(r.ok()) << "response " << i << " lost in drain";
    const Frame& f = r.value();
    ASSERT_GE(f.request_id, 100u);
    ASSERT_LT(f.request_id, 100u + kInFlight);
    EXPECT_FALSE(answered[f.request_id - 100]) << "duplicated response";
    answered[f.request_id - 100] = true;
    EXPECT_EQ(f.status, static_cast<std::uint8_t>(Errc::ok));
  }
  // After the last response the server closes: orderly EOF.
  auto eof = c.recv();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.code(), Errc::unavailable);
  stopper.join();
}

TEST(RtTcp, MalformedMagicGetsProtocolErrorFrameThenClose) {
  Fixture fx;
  NetClient c;
  ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());
  const std::uint8_t junk[16] = {'n', 'o', 'p', 'e', 0, 0, 0, 0};
  ASSERT_TRUE(c.send_raw(junk, sizeof(junk)).ok());
  const Frame err = expect_recv(c);
  EXPECT_EQ(err.kind, Frame::Kind::response);
  EXPECT_TRUE(err.flags & netio::kFlagProtocolError);
  EXPECT_EQ(err.status, static_cast<std::uint8_t>(Errc::invalid_argument));
  auto eof = c.recv();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.code(), Errc::unavailable);
  EXPECT_EQ(fx.server.metrics().counter_value("rt.net.protocol_errors"), 1u);
}

TEST(RtTcp, OversizedLengthPrefixClosesWithoutAllocating) {
  TcpServer::Options topt;
  topt.max_frame_body = 1 << 20;
  Fixture fx({}, topt);
  NetClient c;
  ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());
  // Valid request magic, body length far past the decoder bound: the
  // server must reject on the prefix alone, never buffering 1 GiB.
  std::vector<std::uint8_t> evil;
  const std::uint32_t magic = netio::kRequestMagic;
  const std::uint32_t body = 1u << 30;
  for (int i = 0; i < 4; ++i)
    evil.push_back(static_cast<std::uint8_t>(magic >> (8 * i)));
  for (int i = 0; i < 4; ++i)
    evil.push_back(static_cast<std::uint8_t>(body >> (8 * i)));
  ASSERT_TRUE(c.send_raw(evil).ok());
  const Frame err = expect_recv(c);
  EXPECT_TRUE(err.flags & netio::kFlagProtocolError);
  auto eof = c.recv();
  ASSERT_FALSE(eof.ok());
}

TEST(RtTcp, ClientSentResponseFrameIsAProtocolError) {
  Fixture fx;
  NetClient c;
  ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());
  Frame bogus;
  bogus.kind = Frame::Kind::response;
  bogus.status = 0;
  bogus.request_id = 7;
  ASSERT_TRUE(c.send(bogus).ok());
  const Frame err = expect_recv(c);
  EXPECT_TRUE(err.flags & netio::kFlagProtocolError);
  auto eof = c.recv();
  ASSERT_FALSE(eof.ok());
}

// Errc::overloaded and its retry-after hint survive the wire: a
// rate-limited tenant's second op comes back as an OVERLOADED frame
// with retry_after_us > 0 (microseconds, rounded up -- never a
// truncated-to-zero hint).
TEST(RtTcp, OverloadedShedTravelsWithRetryAfterHint) {
  ShardedStore store({4, 1 << 20, ""});
  TenantRegistry reg;
  TenantConfig cfg;
  cfg.name = "limited";
  cfg.ops_per_s = 1.0;
  cfg.ops_burst = 1.0;
  const auto id = reg.register_tenant(cfg).value();
  RuntimeServer::Options sopt;
  sopt.threads = 1;
  sopt.tenants = &reg;
  RuntimeServer server(store, sopt);
  TcpServer tcp(server, {});

  NetClient c;
  ASSERT_TRUE(c.connect(tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());

  ASSERT_TRUE(c.send(NetClient::make_put(1, id, "k", {1})).ok());
  EXPECT_EQ(expect_recv(c).status, static_cast<std::uint8_t>(Errc::ok));

  ASSERT_TRUE(c.send(NetClient::make_put(2, id, "k2", {1})).ok());
  const Frame shed = expect_recv(c);
  EXPECT_EQ(shed.request_id, 2u);
  EXPECT_EQ(shed.status, static_cast<std::uint8_t>(Errc::overloaded));
  EXPECT_GT(shed.retry_after_us, 0u);
  EXPECT_FALSE(shed.flags & netio::kFlagHasSeq);
}

// Connection gauge and byte counters move through the obs sink.
TEST(RtTcp, ConnectionMetricsAreTracked) {
  Fixture fx;
  {
    NetClient a, b;
    ASSERT_TRUE(a.connect(fx.tcp.port()).ok());
    ASSERT_TRUE(b.connect(fx.tcp.port()).ok());
    ASSERT_TRUE(a.set_recv_timeout(10.0).ok());
    auth_ok(a);
    // Both connects observed; gauge is eventually consistent with the
    // counter pair (accepted - closed).
    for (int i = 0; i < 100; ++i) {
      if (fx.server.metrics().counter_value("rt.net.accepted") >= 2) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GE(fx.server.metrics().counter_value("rt.net.accepted"), 2u);
    EXPECT_GT(fx.server.metrics().counter_value("rt.net.bytes_in"), 0u);
    EXPECT_GT(fx.server.metrics().counter_value("rt.net.frames_in"), 0u);
    EXPECT_GT(fx.server.metrics().counter_value("rt.net.frames_out"), 0u);
  }
  fx.tcp.shutdown();
  EXPECT_EQ(fx.server.metrics().counter_value("rt.net.accepted"),
            fx.server.metrics().counter_value("rt.net.closed"));
}

// Idle reaping (ISSUE 9): a connection with no in-flight ops and no
// traffic past idle_timeout is closed and counted; an active one on the
// same server is left alone.
TEST(RtTcp, IdleConnectionIsReaped) {
  TcpServer::Options topt;
  topt.idle_timeout = std::chrono::milliseconds(100);
  Fixture fx({}, topt);

  NetClient idle, busy;
  ASSERT_TRUE(idle.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(busy.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(idle.set_recv_timeout(5.0).ok());
  ASSERT_TRUE(busy.set_recv_timeout(5.0).ok());
  auth_ok(idle, 1);
  auth_ok(busy, 1);

  // Keep `busy` chatty while `idle` goes silent past the timeout.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::uint64_t id = 100;
  while (fx.server.metrics().counter_value("rt.net.idle_reaps") == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    ASSERT_TRUE(busy.send(NetClient::make_exists(++id, 0, "k")).ok());
    EXPECT_EQ(expect_recv(busy).request_id, id);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(fx.server.metrics().counter_value("rt.net.idle_reaps"), 1u);

  // The reaped connection is really gone: the next recv sees EOF.
  auto r = idle.recv();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.code(), Errc::unavailable);
  // The busy connection survived the whole time.
  ASSERT_TRUE(busy.send(NetClient::make_exists(++id, 0, "k")).ok());
  EXPECT_EQ(expect_recv(busy).request_id, id);
}

// A client that aborts (RST) instead of closing cleanly shows up in
// rt.net.resets; the server stays healthy for everyone else.
TEST(RtTcp, AbortedClientCountsAsReset) {
  Fixture fx;
  {
    NetClient c;
    ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
    ASSERT_TRUE(c.set_recv_timeout(5.0).ok());
    auth_ok(c);
    ASSERT_TRUE(c.send(NetClient::make_put(2, 0, "k", {1, 2, 3})).ok());
    c.abort();  // RST with a request possibly still in flight
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (fx.server.metrics().counter_value("rt.net.resets") == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(fx.server.metrics().counter_value("rt.net.resets"), 1u);

  NetClient c2;
  ASSERT_TRUE(c2.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c2.set_recv_timeout(5.0).ok());
  auth_ok(c2);
}

}  // namespace
}  // namespace memfss::rt
