// Unit tests of the benchmark's own accounting: the percentile rule,
// attempted/failed bookkeeping, exactly-once tracking, self time, and
// the result line.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "../report.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1, 2, ..., n
  return v;
}

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(20, 0.5), 10u);
  EXPECT_EQ(samples_beyond(19, 0.5), 9u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);

  auto v = iota(999);
  EXPECT_FALSE(percentile(v, 0.99).has_value());
  v = iota(1000);
  ASSERT_TRUE(percentile(v, 0.99).has_value());
  v = iota(19);
  EXPECT_FALSE(percentile(v, 0.5).has_value());
}

TEST(PercentileRule, NearestRank) {
  auto v = iota(1000);
  EXPECT_EQ(*percentile(v, 0.99), 990.0);
  v = iota(1000);
  EXPECT_EQ(*percentile(v, 0.5), 500.0);
  std::vector<double> shuffled = {5, 3, 9, 1, 7, 2, 8, 4, 6, 10,
                                  15, 13, 19, 11, 17, 12, 18, 14, 16, 20};
  EXPECT_EQ(*percentile(shuffled, 0.5), 10.0);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_TRUE(std::isnan(median({})));
}

TEST(Tally, CountsAttemptsAndFailuresByReason) {
  Tally t;
  t.attempt(5);
  t.attempt();
  t.fail("not_found");
  t.fail("not_found", 2);
  t.fail("lost_response", 0);  // nothing lost: not recorded
  EXPECT_EQ(t.attempted(), 6u);
  EXPECT_EQ(t.failed(), 3u);
  ASSERT_EQ(t.failures().size(), 1u);
  EXPECT_EQ(t.failures().at("not_found"), 3u);
  EXPECT_TRUE(t.correct());  // failed ops alone do not make outputs wrong
  t.problem("GET returned a value never written");
  EXPECT_FALSE(t.correct());
}

TEST(Inflight, ExactlyOnce) {
  Inflight<int> f(8);
  EXPECT_FALSE(f.open(1, 10).has_value());
  EXPECT_FALSE(f.open(2, 20).has_value());
  EXPECT_EQ(f.open_count(), 2u);
  EXPECT_EQ(f.close(2).value(), 20);  // out of order is fine
  EXPECT_FALSE(f.close(2).has_value());  // duplicate response
  EXPECT_FALSE(f.close(7).has_value());  // never sent
  EXPECT_EQ(f.close(1).value(), 10);
  EXPECT_EQ(f.open_count(), 0u);
}

TEST(Inflight, EvictsAnIdUnansweredPastTheHorizon) {
  Inflight<int> f(8);
  EXPECT_FALSE(f.open(3, 30).has_value());
  for (std::uint64_t id = 4; id < 11; ++id) {
    EXPECT_FALSE(f.open(id, 0).has_value());
    EXPECT_TRUE(f.close(id).has_value());
  }
  const auto lost = f.open(11, 110);  // same slot as id 3
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(*lost, 30);
  EXPECT_FALSE(f.close(3).has_value());  // a late answer is unknown
  EXPECT_EQ(f.open_count(), 1u);
}

TEST(SpanLog, SelfTimeSubtractsChildren) {
  SpanLog log;
  const long req = log.add("kv.get", 0.0, 100.0, 7);
  log.add("netio.send", 0.0, 10.0, 7, req);
  log.add("netio.recv", 10.0, 90.0, 7, req);
  const auto self = log.self_time_us();
  EXPECT_DOUBLE_EQ(self.at("kv.get"), 10.0);
  EXPECT_DOUBLE_EQ(self.at("netio.send"), 10.0);
  EXPECT_DOUBLE_EQ(self.at("netio.recv"), 80.0);
}

TEST(SpanLog, MergesTracerEvents) {
  SpanLog log;
  log.add("a", 1.0, 2.0);
  const std::string tracer =
      "{\"traceEvents\":[\n{\"name\":\"x\",\"ph\":\"i\"}\n],\n"
      "\"displayTimeUnit\":\"ms\",\n\"otherData\":{}}\n";
  EXPECT_EQ(trace_events_of(tracer), "{\"name\":\"x\",\"ph\":\"i\"}");
  const std::string doc = log.chrome_json(trace_events_of(tracer));
  EXPECT_NE(doc.find("\"name\":\"a\""), std::string::npos);
  EXPECT_NE(doc.find("},\n{\"name\":\"x\""), std::string::npos);
}

TEST(CalmBlocks, KeepsCalmBlocksOrTheLeastStolenFew) {
  // Calm blocks are kept in their original order.
  EXPECT_EQ(calm_blocks({0.0, 0.5, 0.01, 0.0, 0.03}, 0.025, 3),
            (std::vector<std::size_t>{0, 2, 3}));
  // Fewer than min_keep calm: the least stolen, ties by position.
  EXPECT_EQ(calm_blocks({0.3, 0.1, 0.2, 0.1, 0.4}, 0.025, 3),
            (std::vector<std::size_t>{1, 2, 3}));
  EXPECT_EQ(calm_blocks({0.3, 0.1}, 0.025, 3),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_TRUE(calm_blocks({}, 0.025, 3).empty());
}

TEST(ResultJson, HasExactlyTheContractKeys) {
  Tally t;
  t.attempt(3);
  t.fail("timeout");
  const std::string line =
      result_json(t, {{"ops_per_sec", 1234.5, "1/s"}, {"setup_s", 0.25, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
            "\"metrics\": {\"ops_per_sec\": {\"value\": 1234.5, \"unit\": "
            "\"1/s\"}, \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}");
}

}  // namespace
}  // namespace perfbench
