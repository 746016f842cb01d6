// Tests for the network chaos layer (DESIGN.md §15): the in-process
// netio::ChaosProxy in front of a live rt::TcpServer, and the
// netio::ResilientClient that is supposed to survive what it injects.
//
//   - NetClient hygiene: move-assignment releases the held fd, and a
//     bounded recv() honors its whole-call deadline through EINTR storms
//     instead of returning early or resetting the clock;
//   - proxy transparency: with faults disabled the proxy is an exact
//     byte pipe (same answers as a direct connection);
//   - torn frames: with every chunk torn into staggered pieces, the
//     decoder reassembles every frame byte-exactly;
//   - resilience: calls succeed across kill_connections(), the breaker
//     opens against a dead port and closes again via half-open once the
//     server appears (also when that trial is answered `permission`),
//     and a corrupted response frame is retried --
//     surfacing the *correct* bytes, never the corrupted ones.
#include <gtest/gtest.h>

#include <dirent.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "netio/chaos.hpp"
#include "netio/client.hpp"
#include "netio/frame.hpp"
#include "netio/resilient_client.hpp"
#include "rt/sharded_store.hpp"
#include "rt/server.hpp"
#include "rt/tcp_server.hpp"

namespace memfss::netio {
namespace {

struct Stack {
  rt::ShardedStore store;
  rt::RuntimeServer server;
  rt::TcpServer tcp;

  explicit Stack(rt::TcpServer::Options topt = {})
      : store({4, 64u << 20, "rt"}),
        server(store, {2, 256, std::chrono::microseconds(0)}),
        tcp(server, topt) {}
};

Frame expect_recv(NetClient& c) {
  auto r = c.recv();
  EXPECT_TRUE(r.ok()) << "recv failed";
  return r.ok() ? r.value() : Frame{};
}

void auth_ok(NetClient& c, std::uint64_t id = 1) {
  ASSERT_TRUE(c.authenticate(id, "rt").ok());
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  DIR* d = opendir("/proc/self/fd");
  if (!d) return 0;
  while (readdir(d) != nullptr) ++n;
  closedir(d);
  return n;
}

double mono_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reserve a loopback port nothing is listening on: bind, read the
/// assigned port, close. Racy in principle, good enough over loopback.
std::uint16_t idle_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

TEST(NetioChaos, MoveAssignmentReleasesTheHeldConnection) {
  Stack fx;
  NetClient a, b;
  ASSERT_TRUE(a.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(b.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(b.set_recv_timeout(10.0).ok());
  auth_ok(b, 7);

  // The server side accepts and closes asynchronously in this process;
  // wait for the fd table to go quiet before measuring, then assert a
  // strict decrease (our fd closes synchronously in the move; the
  // server's half may or may not have been reaped yet).
  std::size_t before = open_fd_count();
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::size_t now = open_fd_count();
    if (now == before) break;
    before = now;
  }
  a = std::move(b);  // must close a's old fd, not leak it
  EXPECT_LT(open_fd_count(), before);
  EXPECT_FALSE(b.connected());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.connected());

  // The adopted connection keeps its AUTH binding and its timeout.
  ASSERT_TRUE(a.send(NetClient::make_put(8, 0, "k", {1, 2, 3})).ok());
  EXPECT_EQ(expect_recv(a).status, static_cast<std::uint8_t>(Errc::ok));

  // Self-move must not close the fd.
  NetClient& alias = a;
  a = std::move(alias);
  EXPECT_TRUE(a.connected());
  ASSERT_TRUE(a.send(NetClient::make_get(9, 0, "k")).ok());
  EXPECT_EQ(expect_recv(a).status, static_cast<std::uint8_t>(Errc::ok));
}

void sigusr1_noop(int) {}

TEST(NetioChaos, RecvTimeoutSurvivesSignalStorm) {
  Stack fx;
  NetClient c;
  ASSERT_TRUE(c.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(0.4).ok());

  // SA_RESTART deliberately off: every signal interrupts recvmsg with
  // EINTR, which naive SO_RCVTIMEO handling turns into either an early
  // Errc::timeout or an infinite restart of the full timeout.
  struct sigaction sa {};
  sa.sa_handler = sigusr1_noop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  struct sigaction old {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  std::atomic<bool> stop{false};
  const pthread_t victim = pthread_self();
  std::thread pepper([&] {
    while (!stop.load()) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  const double t0 = mono_s();
  auto r = c.recv();  // nothing ever arrives
  const double elapsed = mono_s() - t0;
  stop.store(true);
  pepper.join();
  ASSERT_EQ(sigaction(SIGUSR1, &old, nullptr), 0);

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::timeout);
  // Neither early (signals must not eat the budget) nor endlessly
  // re-armed (signals must not reset it).
  EXPECT_GE(elapsed, 0.35);
  EXPECT_LT(elapsed, 5.0);
}

TEST(NetioChaos, QuietProxyIsTransparent) {
  Stack fx;
  ChaosProxy proxy(fx.tcp.port(), ChaosPlan::faulty(1));
  ASSERT_TRUE(proxy.ok());
  proxy.set_faults_enabled(false);

  NetClient direct, proxied;
  ASSERT_TRUE(direct.connect(fx.tcp.port()).ok());
  ASSERT_TRUE(proxied.connect(proxy.port()).ok());
  for (NetClient* c : {&direct, &proxied}) {
    ASSERT_TRUE(c->set_recv_timeout(10.0).ok());
    auth_ok(*c);
  }

  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::string key = "t" + std::to_string(i % 5);
    std::vector<std::uint8_t> payload(1 + i * 7 % 200,
                                      static_cast<std::uint8_t>(i));
    Frame da, pr;
    ASSERT_TRUE(
        direct.send(NetClient::make_put(100 + i, 0, key, payload)).ok());
    da = expect_recv(direct);
    ASSERT_TRUE(
        proxied.send(NetClient::make_put(100 + i, 0, key, payload)).ok());
    pr = expect_recv(proxied);
    EXPECT_EQ(da.status, pr.status);
    ASSERT_TRUE(direct.send(NetClient::make_get(200 + i, 0, key)).ok());
    da = expect_recv(direct);
    ASSERT_TRUE(proxied.send(NetClient::make_get(200 + i, 0, key)).ok());
    pr = expect_recv(proxied);
    EXPECT_EQ(da.status, pr.status);
    EXPECT_EQ(da.checksum, pr.checksum);
    EXPECT_EQ(da.value, pr.value);
  }
  EXPECT_EQ(proxy.stats().resets_injected, 0u);
  EXPECT_EQ(proxy.stats().chunks_corrupted, 0u);
  EXPECT_GT(proxy.stats().bytes_forwarded, 0u);
}

TEST(NetioChaos, TornFramesReassembleByteExactly) {
  Stack fx;
  ChaosPlan plan;  // tear every chunk, nothing else
  plan.seed = 7;
  plan.accept_blackhole_p = 0;
  plan.reset_p = 0;
  plan.corrupt_p = 0;
  plan.tear_p = 1.0;
  plan.delay_max_us = 0;
  ChaosProxy proxy(fx.tcp.port(), plan);
  ASSERT_TRUE(proxy.ok());

  NetClient c;
  ASSERT_TRUE(c.connect(proxy.port()).ok());
  ASSERT_TRUE(c.set_recv_timeout(10.0).ok());
  auth_ok(c);
  for (std::uint64_t i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> payload(40 + (i * 31) % 500,
                                      static_cast<std::uint8_t>(i + 1));
    ASSERT_TRUE(c.send(NetClient::make_put(10 + i, 0, "torn", payload)).ok());
    ASSERT_EQ(expect_recv(c).status, static_cast<std::uint8_t>(Errc::ok));
    ASSERT_TRUE(c.send(NetClient::make_get(500 + i, 0, "torn")).ok());
    const Frame got = expect_recv(c);
    ASSERT_EQ(got.status, static_cast<std::uint8_t>(Errc::ok));
    EXPECT_EQ(got.value, payload);
  }
  EXPECT_GT(proxy.stats().chunks_torn, 0u);
}

TEST(NetioChaos, ResilientClientRidesOverKilledConnections) {
  Stack fx;
  ChaosProxy proxy(fx.tcp.port(), ChaosPlan::faulty(3));
  ASSERT_TRUE(proxy.ok());
  proxy.set_faults_enabled(false);

  ResilientOptions opt;
  opt.port = proxy.port();
  opt.auth_token = "rt";
  opt.attempt_recv_timeout_s = 0.2;
  opt.default_deadline_s = 5.0;
  ResilientClient rc(opt);

  auto put = rc.call(NetClient::make_put(1, 0, "k", {9, 9, 9}), true);
  ASSERT_TRUE(put.answered);
  EXPECT_EQ(put.code, Errc::ok);

  for (int round = 0; round < 3; ++round) {
    proxy.kill_connections();
    auto get = rc.call(NetClient::make_get(2 + round, 0, "k"), true);
    ASSERT_TRUE(get.answered) << "round " << round;
    EXPECT_EQ(get.code, Errc::ok);
    EXPECT_EQ(get.response.value, (std::vector<std::uint8_t>{9, 9, 9}));
  }
  EXPECT_GE(rc.stats().reconnects, 3u);
}

TEST(NetioChaos, BreakerOpensOnDeadPortAndRecoversHalfOpen) {
  const std::uint16_t port = idle_port();

  ResilientOptions opt;
  opt.port = port;
  opt.auth_token = "rt";
  opt.attempt_recv_timeout_s = 0.05;
  opt.default_deadline_s = 0.3;
  opt.backoff_base_s = 0.001;
  opt.backoff_max_s = 0.01;
  opt.breaker = {3, 0.15};
  ResilientClient rc(opt);

  // Nothing listens: calls fail, faults accumulate, the breaker opens
  // and starts rejecting locally.
  for (int i = 0; i < 4; ++i) {
    auto out = rc.call(NetClient::make_get(1 + i, 0, "k"), true);
    EXPECT_FALSE(out.answered);
  }
  // The breaker may sit in open or half-open at the instant the last
  // deadline expires (the cooldown can elapse mid-call); the durable
  // evidence is that it opened and gated attempts locally.
  EXPECT_GE(rc.stats().breaker_opens, 1u);
  EXPECT_GT(rc.stats().breaker_rejections, 0u);

  // The server appears on that exact port; after the cooldown the
  // half-open trial succeeds and the breaker closes again.
  rt::ShardedStore store({4, 64u << 20, "rt"});
  rt::RuntimeServer server(store, {2, 256, std::chrono::microseconds(0)});
  rt::TcpServer::Options topt;
  topt.port = port;
  rt::TcpServer tcp(server, topt);

  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto out = rc.call(NetClient::make_put(100, 0, "k", {1}), true, 5.0);
  ASSERT_TRUE(out.answered);
  EXPECT_EQ(out.code, Errc::ok);
  EXPECT_FALSE(rc.breaker_open());
}

// Every attempt the breaker admits records one outcome. A half-open
// trial answered `permission` at AUTH proves the server alive: it must
// close the breaker, not leave the trial slot taken so that every later
// call is rejected locally.
TEST(NetioChaos, HalfOpenTrialAnsweredWithPermissionDoesNotWedge) {
  const std::uint16_t port = idle_port();

  ResilientOptions opt;
  opt.port = port;
  opt.auth_token = "not-the-token";
  opt.attempt_recv_timeout_s = 0.05;
  opt.default_deadline_s = 0.1;
  opt.backoff_base_s = 0.001;
  opt.backoff_max_s = 0.01;
  opt.breaker = {3, 0.15};
  ResilientClient rc(opt);

  // Nothing listens: the breaker opens, and the deadline ends before
  // the cooldown does.
  EXPECT_FALSE(rc.call(NetClient::make_get(1, 0, "k"), true).answered);
  ASSERT_TRUE(rc.breaker_open());

  rt::TcpServer::Options topt;
  topt.port = port;
  Stack fx(topt);  // its token is "rt"
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const std::uint64_t rejections = rc.stats().breaker_rejections;
  for (std::uint64_t id = 2; id <= 3; ++id) {
    const double t0 = mono_s();
    const CallOutcome out = rc.call(NetClient::make_get(id, 0, "k"), true, 5.0);
    EXPECT_EQ(out.code, Errc::permission) << "call " << id;
    EXPECT_LT(mono_s() - t0, 1.0) << "call " << id;
    EXPECT_FALSE(rc.breaker_open());
  }
  EXPECT_EQ(rc.stats().breaker_rejections, rejections);
}

TEST(NetioChaos, CorruptedResponseIsRetriedNeverSurfaced) {
  Stack fx;
  ChaosProxy proxy(fx.tcp.port(), ChaosPlan::faulty(5));
  ASSERT_TRUE(proxy.ok());
  proxy.set_faults_enabled(false);

  ResilientOptions opt;
  opt.port = proxy.port();
  opt.auth_token = "rt";
  opt.attempt_recv_timeout_s = 0.3;
  opt.default_deadline_s = 10.0;
  ResilientClient rc(opt);

  std::vector<std::uint8_t> payload(128);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 13 + 1);
  auto put = rc.call(NetClient::make_put(1, 0, "gold", payload), true);
  ASSERT_TRUE(put.answered);
  ASSERT_EQ(put.code, Errc::ok);

  for (int round = 0; round < 8; ++round) {
    proxy.corrupt_next_from_upstream(1);
    auto get = rc.call(NetClient::make_get(10 + round, 0, "gold"), true);
    ASSERT_TRUE(get.answered) << "round " << round;
    ASSERT_EQ(get.code, Errc::ok);
    // The corrupted attempt died inside the decoder; what surfaced is
    // the retried, intact frame.
    EXPECT_EQ(get.response.value, payload);
  }
  EXPECT_GE(rc.stats().corrupt_frames, 1u);
  EXPECT_EQ(rc.stats().value_checksum_failures, 0u);
  EXPECT_GT(proxy.stats().chunks_corrupted, 0u);
}

}  // namespace
}  // namespace memfss::netio
