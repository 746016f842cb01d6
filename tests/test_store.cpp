#include "kvstore/store.hpp"

#include <gtest/gtest.h>

namespace memfss::kvstore {
namespace {

Blob bytes_blob(std::string_view s) {
  return Blob::materialized(
      std::vector<std::uint8_t>(s.begin(), s.end()));
}

TEST(Blob, MaterializedProperties) {
  auto b = bytes_blob("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_FALSE(b.is_ghost());
  EXPECT_EQ(bytes_blob("hello").checksum(), b.checksum());
  EXPECT_NE(bytes_blob("hellp").checksum(), b.checksum());
}

TEST(Blob, MaterializedWithChecksumEqualsMaterialized) {
  const std::string_view text = "a value hashed once upstream";
  const auto hashed = bytes_blob(text);
  const auto reused = Blob::materialized_with_checksum(
      std::vector<std::uint8_t>(text.begin(), text.end()), hashed.checksum());
  EXPECT_EQ(reused, hashed);
  EXPECT_TRUE(reused.verify());
  const auto empty = Blob::materialized_with_checksum(
      {}, Blob::materialized({}).checksum());
  EXPECT_EQ(empty, Blob::materialized({}));
}

TEST(Blob, TakeBytesMovesThePayloadOut) {
  auto b = bytes_blob("payload");
  const auto bytes = std::move(b).take_bytes();
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "payload");
  EXPECT_EQ(b, Blob{});  // take_bytes leaves a default-constructed blob
  EXPECT_FALSE(b.is_ghost());
}

TEST(Blob, GhostProperties) {
  auto g = Blob::ghost(1 << 20, 42);
  EXPECT_EQ(g.size(), 1u << 20);
  EXPECT_TRUE(g.is_ghost());
  EXPECT_EQ(Blob::ghost(1 << 20, 42), g);
  EXPECT_FALSE(Blob::ghost(1 << 20, 43) == g);
}

TEST(Store, PutGetRoundtrip) {
  Store st(1 << 20, "tok");
  ASSERT_TRUE(st.put("tok", "k", bytes_blob("v")).ok());
  auto r = st.get("tok", "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), bytes_blob("v"));
  EXPECT_EQ(st.key_count(), 1u);
}

TEST(Store, GetMissingIsNotFound) {
  Store st(1 << 20, "tok");
  EXPECT_EQ(st.get("tok", "nope").code(), Errc::not_found);
  EXPECT_EQ(st.stats().misses, 1u);
}

TEST(Store, AuthRejectsBadToken) {
  Store st(1 << 20, "secret");
  EXPECT_EQ(st.put("wrong", "k", bytes_blob("v")).code(), Errc::permission);
  EXPECT_EQ(st.get("wrong", "k").code(), Errc::permission);
  EXPECT_EQ(st.stats().auth_failures, 2u);
}

TEST(Store, EmptyTokenDisablesAuth) {
  Store st(1 << 20);
  EXPECT_TRUE(st.put("anything", "k", bytes_blob("v")).ok());
}

TEST(Store, CapacityEnforced) {
  Store st(Store::kPerKeyOverhead + 10, "t");
  EXPECT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  EXPECT_EQ(st.put("t", "b", Blob::ghost(1)).code(), Errc::out_of_memory);
  EXPECT_EQ(st.key_count(), 1u);
}

TEST(Store, OverwriteReusesSpace) {
  Store st(Store::kPerKeyOverhead + 10, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  // Same key, same size: allowed even though the store is full.
  EXPECT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  EXPECT_TRUE(st.put("t", "a", Blob::ghost(4)).ok());
  EXPECT_EQ(st.used(), Store::kPerKeyOverhead + 4);
}

TEST(Store, DeleteFreesSpace) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(100)).ok());
  const auto used = st.used();
  EXPECT_GT(used, 100u);
  ASSERT_TRUE(st.del("t", "a").ok());
  EXPECT_EQ(st.used(), 0u);
  EXPECT_EQ(st.del("t", "a").code(), Errc::not_found);
}

TEST(Store, ExistsAndValueSize) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(77)).ok());
  EXPECT_TRUE(st.exists("t", "a").value());
  EXPECT_FALSE(st.exists("t", "b").value());
  EXPECT_EQ(st.value_size("t", "a").value(), 77u);
  EXPECT_EQ(st.value_size("t", "b").code(), Errc::not_found);
}

TEST(Store, KeysListsEverything) {
  Store st(1 << 20, "t");
  for (int i = 0; i < 5; ++i)
    ASSERT_TRUE(st.put("t", "k" + std::to_string(i), Blob::ghost(1)).ok());
  auto keys = st.keys();
  EXPECT_EQ(keys.size(), 5u);
}

TEST(Store, CloseMakesUnavailableButDrainable) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", bytes_blob("data")).ok());
  st.close();
  EXPECT_EQ(st.get("t", "a").code(), Errc::unavailable);
  EXPECT_EQ(st.put("t", "b", Blob::ghost(1)).code(), Errc::unavailable);
  auto drained = st.drain("a");
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(*drained, bytes_blob("data"));
  EXPECT_EQ(st.used(), 0u);
  EXPECT_FALSE(st.drain("a").has_value());
}

TEST(Store, ClearReturnsAccountedBytes) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(100)).ok());
  ASSERT_TRUE(st.put("t", "b", Blob::ghost(50)).ok());
  const auto freed = st.clear();
  EXPECT_EQ(freed, 150u + 2 * Store::kPerKeyOverhead);
  EXPECT_EQ(st.used(), 0u);
  EXPECT_EQ(st.key_count(), 0u);
}

TEST(Store, StatsAccumulate) {
  Store st(1 << 20, "t");
  ASSERT_TRUE(st.put("t", "a", Blob::ghost(10)).ok());
  (void)st.get("t", "a");
  (void)st.get("t", "zzz");
  EXPECT_EQ(st.stats().puts, 1u);
  EXPECT_EQ(st.stats().gets, 2u);
  EXPECT_EQ(st.stats().hits, 1u);
  EXPECT_EQ(st.stats().misses, 1u);
  EXPECT_EQ(st.stats().bytes_in, 10u);
  EXPECT_EQ(st.stats().bytes_out, 10u);
}

}  // namespace
}  // namespace memfss::kvstore
