#include "hash/hashes.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

namespace memfss::hash {
namespace {

TEST(TrWeight, DeterministicAnd31Bit) {
  for (std::uint32_t s = 0; s < 100; ++s) {
    for (std::uint32_t k = 0; k < 100; k += 7) {
      const auto w1 = tr_weight(s, k);
      const auto w2 = tr_weight(s, k);
      EXPECT_EQ(w1, w2);
      EXPECT_LT(w1, 1u << 31);
    }
  }
}

TEST(TrWeight, SensitiveToBothArguments) {
  EXPECT_NE(tr_weight(1, 100), tr_weight(2, 100));
  EXPECT_NE(tr_weight(1, 100), tr_weight(1, 101));
}

TEST(Fnv1a, KnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(Mix64, DispersesLowBitChanges) {
  // Flipping one input bit should flip roughly half the output bits.
  int total_flips = 0;
  const int trials = 256;
  for (int i = 0; i < trials; ++i) {
    const auto a = mix64(i, 12345);
    const auto b = mix64(i ^ 1, 12345);
    total_flips += __builtin_popcountll(a ^ b);
  }
  const double avg = double(total_flips) / trials;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Mix64, NoObviousCollisions) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i, 7));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Fold31, InRange) {
  for (std::uint64_t x : {0ull, 1ull, ~0ull, 0xdeadbeefcafebabeull}) {
    EXPECT_LT(fold31(x), 1u << 31);
  }
}

TEST(KeyDigest, MatchesFnv) {
  EXPECT_EQ(key_digest("stripe-17"), fnv1a("stripe-17"));
}

// Test input: byte i of the pattern is (i * 131 + 7) mod 256.
std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> b(n);
  for (std::size_t i = 0; i < n; ++i)
    b[i] = static_cast<std::uint8_t>(i * 131 + 7);
  return b;
}

TEST(ContentChecksum, KnownAnswersMatchXxh64) {
  // Reference values from llvm::xxHash64 (LLVM 14, seed 0) over the
  // first n bytes of pattern(). The lengths cover the short-input path,
  // every tail (8-, 4- and 1-byte steps), the 32-byte stripe boundary
  // and multi-stripe inputs up to a 64 KiB value.
  struct Kat {
    std::size_t n;
    std::uint64_t want;
  };
  const Kat kats[] = {
      {0, 0xEF46DB3751D8E999ull},     {1, 0xA96C7F0CE858BBB7ull},
      {3, 0xBED43740EE6332BBull},     {4, 0xFA212AE44B3BB23Dull},
      {7, 0x2744460DD675D2C0ull},     {8, 0x994B676B71CE94DDull},
      {31, 0x6711D55E306B5D8Full},    {32, 0x07F7B8E3BC5D6E25ull},
      {33, 0x09F85EEB4E1CBE9Full},    {63, 0xB7C9968C066CB6A5ull},
      {64, 0x50D4159A0411632Eull},    {100, 0x9DDADA11D3DC2D8Full},
      {4097, 0x00811AB3925B884Aull},  {65536, 0x42A4749843255CECull},
  };
  const auto bytes = pattern(65536);
  for (const Kat& k : kats)
    EXPECT_EQ(content_checksum(std::span(bytes).first(k.n)), k.want)
        << "n=" << k.n;
  EXPECT_EQ(content_checksum({}), 0xEF46DB3751D8E999ull);
}

TEST(ContentChecksum, EverySingleBitFlipChangesTheResult) {
  // Lengths 1-300 at offsets 0-7 from an 8-aligned buffer cover the
  // stripe loop and each tail at every alignment; the unflipped result
  // must also not depend on where the bytes sit.
  const std::size_t kMax = 300;
  std::vector<std::uint64_t> backing(kMax / 8 + 2);
  auto* base = reinterpret_cast<std::uint8_t*>(backing.data());
  for (std::size_t len = 1; len <= kMax; ++len) {
    const auto ref = pattern(len);
    const std::uint64_t want = content_checksum(ref);
    for (std::size_t off = 0; off < 8; ++off) {
      std::span<std::uint8_t> s(base + off, len);
      std::copy(ref.begin(), ref.end(), s.begin());
      ASSERT_EQ(content_checksum(s), want) << "len=" << len << " off=" << off;
      for (std::size_t bit = 0; bit < len * 8; ++bit) {
        s[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ASSERT_NE(content_checksum(s), want)
            << "len=" << len << " off=" << off << " bit=" << bit;
        s[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
    }
  }
}

}  // namespace
}  // namespace memfss::hash
