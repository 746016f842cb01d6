#include "hash/hashes.hpp"

#include <bit>
#include <cstring>

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

// XXH64 (github.com/Cyan4973/xxHash, XXH64 spec): four 64-bit
// accumulators over 32-byte stripes, then 8-, 4- and 1-byte tails and a
// final avalanche. Loads go through memcpy, so any alignment is fine.
constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

std::uint64_t load_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap32(v);
  return v;
}

std::uint64_t xxh_round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

std::uint64_t xxh_merge(std::uint64_t h, std::uint64_t acc) {
  return (h ^ xxh_round(0, acc)) * kP1 + kP4;
}

}  // namespace

std::uint64_t content_checksum(std::span<const std::uint8_t> bytes) {
  const std::uint8_t* p = bytes.data();
  const std::size_t n = bytes.size();
  const std::uint8_t* const end = p + n;
  std::uint64_t h = kP5;
  if (n >= 32) {
    std::uint64_t v1 = kP1 + kP2, v2 = kP2, v3 = 0, v4 = 0 - kP1;
    for (const std::uint8_t* const last = end - 32; p <= last; p += 32) {
      v1 = xxh_round(v1, load_le64(p));
      v2 = xxh_round(v2, load_le64(p + 8));
      v3 = xxh_round(v3, load_le64(p + 16));
      v4 = xxh_round(v4, load_le64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = xxh_merge(xxh_merge(xxh_merge(xxh_merge(h, v1), v2), v3), v4);
  }
  h += n;
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ xxh_round(0, load_le64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ (load_le32(p) * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
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
