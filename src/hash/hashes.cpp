#include "hash/hashes.hpp"

#include <algorithm>
#include <cassert>

namespace memfss::hash {

std::uint32_t tr_weight(std::uint32_t server, std::uint32_t key) {
  constexpr std::uint32_t A = 1103515245u;
  constexpr std::uint32_t B = 12345u;
  constexpr std::uint32_t M = 0x7fffffffu;  // 2^31 - 1 mask
  const std::uint32_t inner = (A * server + B) ^ key;
  return (A * inner + B) & M;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  // splitmix64 finalizer over the combination; passes avalanche tests.
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t key_digest(std::string_view key) { return fnv1a(key); }

namespace {

/// Advance L independent FNV-1a chains in lockstep over their common
/// length, so each chain's multiply latency hides behind the others';
/// uneven tails finish serially (sibling/stripe keys in one batch share
/// a shape, so the common run covers nearly everything).
template <std::size_t L>
void fnv1a_lanes(const std::string_view* keys, std::uint64_t* out) {
  std::uint64_t h[L];
  std::size_t common = keys[0].size();
  for (std::size_t l = 0; l < L; ++l) {
    h[l] = fnv1a_seed();
    common = std::min(common, keys[l].size());
  }
  for (std::size_t i = 0; i < common; ++i)
#pragma GCC unroll 4  // keep the chains in registers at -O2 as well
    for (std::size_t l = 0; l < L; ++l)
      h[l] = fnv1a_byte(h[l], static_cast<unsigned char>(keys[l][i]));
  for (std::size_t l = 0; l < L; ++l) {
    for (std::size_t i = common; i < keys[l].size(); ++i)
      h[l] = fnv1a_byte(h[l], static_cast<unsigned char>(keys[l][i]));
    out[l] = h[l];
  }
}

}  // namespace

void fnv1a_many(std::span<const std::string_view> keys,
                std::span<std::uint64_t> out) {
  assert(out.size() >= keys.size());
  std::size_t g = 0;
  for (; g + 4 <= keys.size(); g += 4) fnv1a_lanes<4>(&keys[g], &out[g]);
  // The leftover group interleaves too: RS(4,2) hashes six siblings, and
  // two serial chains would cost as much as the four-lane group.
  switch (keys.size() - g) {
    case 3: fnv1a_lanes<3>(&keys[g], &out[g]); break;
    case 2: fnv1a_lanes<2>(&keys[g], &out[g]); break;
    case 1: out[g] = fnv1a(keys[g]); break;
    default: break;
  }
}

std::uint64_t fnv1a_decimal(std::uint64_t h, std::uint64_t value) {
  char digits[20];  // 2^64 has at most 20 decimal digits
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (n > 0) h = fnv1a_byte(h, static_cast<unsigned char>(digits[--n]));
  return h;
}

std::uint32_t fold31(std::uint64_t x) {
  return static_cast<std::uint32_t>((x ^ (x >> 31) ^ (x >> 62)) & 0x7fffffffu);
}

}  // namespace memfss::hash
