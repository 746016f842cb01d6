#include "rt/loadgen.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <map>
#include <sstream>
#include <thread>

namespace memfss::rt {
namespace {

LoadgenOptions small_opts() {
  LoadgenOptions opt;
  opt.client_threads = 1;
  opt.server_threads = 1;
  opt.shards = 4;
  opt.stream.ops_per_thread = 3000;
  opt.batch = 8;
  opt.value_size = 64;
  opt.stream.get_fraction = 0.5;
  opt.stream.del_fraction = 0.1;
  opt.stream.key_space = 100;
  opt.capacity = 8 * units::MiB;
  opt.stream.seed = 7;
  opt.service_time_us = 0;
  return opt;
}

TEST(RtLoadgen, GeneratedStreamsAreDeterministic) {
  const auto opt = small_opts();
  const auto a = generate_stream(opt.stream, 0);
  const auto b = generate_stream(opt.stream, 0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].key_index, b[i].key_index) << i;
  }
}

TEST(RtLoadgen, StreamsDifferByThreadAndSeed) {
  auto opt = small_opts();
  const auto base = generate_stream(opt.stream, 0);
  const auto other_thread = generate_stream(opt.stream, 1);
  opt.stream.seed = 8;
  const auto other_seed = generate_stream(opt.stream, 0);
  auto differs = [&](const std::vector<GenOp>& v) {
    for (std::size_t i = 0; i < base.size(); ++i)
      if (base[i].type != v[i].type || base[i].key_index != v[i].key_index)
        return true;
    return false;
  };
  EXPECT_TRUE(differs(other_thread));
  EXPECT_TRUE(differs(other_seed));
}

TEST(RtLoadgen, ZipfThetaSkewsKeyPopularity) {
  auto opt = small_opts();
  opt.stream.key_space = 1000;
  opt.stream.ops_per_thread = 20000;
  opt.stream.zipf_theta = 0.99;
  std::map<std::uint32_t, std::size_t> freq;
  for (const auto& g : generate_stream(opt.stream, 0)) ++freq[g.key_index];
  const double uniform_share =
      static_cast<double>(opt.stream.ops_per_thread) / opt.stream.key_space;
  // Rank-0 key should be far above a uniform draw's 20 hits.
  EXPECT_GT(freq[0], 5 * uniform_share);
  opt.stream.zipf_theta = 0.0;
  std::map<std::uint32_t, std::size_t> uf;
  for (const auto& g : generate_stream(opt.stream, 0)) ++uf[g.key_index];
  EXPECT_LT(uf[0], 5 * uniform_share);
}

// The deterministic-replay smoke test: a fixed seed with one client
// thread and one worker thread executes the identical op stream, in the
// identical order, with identical results -- twice.
TEST(RtLoadgen, SingleThreadedReplayIsIdentical) {
  const auto opt = small_opts();
  const auto a = run_loadgen(opt);
  const auto b = run_loadgen(opt);
  EXPECT_NE(a.result_digest, 0u);
  EXPECT_EQ(a.result_digest, b.result_digest);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.dels, b.dels);
  EXPECT_EQ(a.not_found, b.not_found);
  EXPECT_EQ(a.rejected, 0u);
  EXPECT_EQ(a.errors, 0u);
  // A different seed must not replay to the same digest.
  auto opt2 = opt;
  opt2.stream.seed = 8;
  EXPECT_NE(run_loadgen(opt2).result_digest, a.result_digest);
}

TEST(RtLoadgen, MultithreadedRunAccountsEveryOp) {
  auto opt = small_opts();
  opt.client_threads = 4;
  opt.server_threads = 4;
  opt.stream.ops_per_thread = 2000;
  const auto r = run_loadgen(opt);
  EXPECT_EQ(r.puts + r.gets + r.dels + r.not_found + r.rejected +
                r.overloaded + r.errors,
            opt.client_threads * opt.stream.ops_per_thread);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_GT(r.ops_per_sec, 0.0);
  // Shed ops (rejected or overloaded) never enter the latency
  // histogram -- they would fake sub-microsecond samples.
  EXPECT_EQ(r.latency.count,
            opt.client_threads * opt.stream.ops_per_thread - r.rejected -
                r.overloaded);
  // In process every op is answered and nothing crosses a socket.
  EXPECT_EQ(r.responses, opt.client_threads * opt.stream.ops_per_thread);
  EXPECT_EQ(r.lost + r.duplicated + r.transport_errors, 0u);
  EXPECT_EQ(r.bytes_in + r.bytes_out, 0u);
}

// ops_per_sec counts completed ops only, on both transports: queue-full
// rejections never ran, so a run that sheds must not report them as
// throughput. One worker with a one-slot queue, a 64-op batch and a
// 200us service time guarantees rejections.
TEST(RtLoadgen, OpsPerSecExcludesShedOpsOnBothTransports) {
  for (const std::size_t conns : {0u, 1u}) {
    auto opt = small_opts();
    opt.stream.ops_per_thread = 640;
    opt.queue_capacity = 1;
    opt.batch = 64;
    opt.service_time_us = 200;
    opt.server_threads = 1;
    opt.connections_per_thread = conns;
    const auto r = run_loadgen(opt);
    SCOPED_TRACE(conns == 0 ? "in-process" : "socket");
    EXPECT_GT(r.rejected, 0u);
    EXPECT_EQ(r.lost, 0u);
    const double completed = static_cast<double>(
        r.puts + r.gets + r.dels + r.not_found + r.errors);
    ASSERT_GT(completed, 0.0);
    EXPECT_NEAR(r.ops_per_sec * r.wall_s, completed, 1e-6 * completed);
  }
}

// A zero batch once left the stream offset at 0 forever, on both
// transports and in the QoS client loop. Each arm runs on its own
// thread, so a regression fails here instead of hanging the suite.
TEST(RtLoadgen, ZeroBatchDoesNotHang) {
  struct Arm {
    const char* name;
    std::future<std::uint64_t> ops;  ///< answered ops
    std::thread runner;
  };
  // `run` holds copies of everything it reads, so a hung arm can be
  // left running when the test gives up on it.
  auto arm = [](const char* name, auto run) {
    std::packaged_task<std::uint64_t()> task(std::move(run));
    auto ops = task.get_future();
    return Arm{name, std::move(ops), std::thread(std::move(task))};
  };
  auto loadgen_arm = [&](const char* name, std::size_t conns) {
    auto opt = small_opts();
    opt.stream.ops_per_thread = 10;
    opt.batch = 0;
    opt.connections_per_thread = conns;
    return arm(name, [opt] {
      const auto r = run_loadgen(opt);
      return r.lost == 0 ? r.responses : 0;
    });
  };
  QosOptions qopt;
  qopt.server_threads = 1;
  qopt.service_time_us = 0;
  qopt.tenants.resize(1);
  qopt.tenants[0].ops_per_thread = 10;
  qopt.tenants[0].batch = 0;

  Arm arms[] = {loadgen_arm("in-process", 0), loadgen_arm("socket", 1),
                arm("qos", [qopt] {
                  return run_qos_scenario(qopt).tenants[0].submitted;
                })};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (Arm& a : arms) {
    SCOPED_TRACE(a.name);
    if (a.ops.wait_until(deadline) != std::future_status::ready) {
      ADD_FAILURE() << "still running after 20 s";
      a.runner.detach();  // a hung arm can never be joined
      continue;
    }
    a.runner.join();
    EXPECT_EQ(a.ops.get(), 10u);
  }
}

// One CSV schema for both transports.
TEST(RtLoadgen, CsvRowMatchesHeaderSchema) {
  auto fields = [](const std::string& line) {
    std::size_t n = 1;
    for (const char c : line) n += c == ',';
    return n;
  };
  for (const std::size_t conns : {0u, 2u}) {
    auto opt = small_opts();
    opt.connections_per_thread = conns;
    const auto r = run_loadgen(opt);
    EXPECT_EQ(fields(loadgen_csv_header()), fields(loadgen_csv_row(r)))
        << "connections_per_thread " << conns;
  }
}

}  // namespace
}  // namespace memfss::rt
