// Hash functions used by the placement schemes and for stored values.
//
// Three families:
//  - tr_weight(): the 31-bit linear-congruential "random weight" function
//    from Thaler & Ravishankar (1998), the function the MemFSS paper says
//    it keeps for its weighted scheme.
//  - mix64()/key_digest(): a 64-bit finalizer-based mixer (splitmix style)
//    used as the default score function, over FNV-1a key digests; better
//    dispersion, same API. Keys are short, so FNV-1a's byte-serial chain
//    costs nothing there.
//  - content_checksum(): the one checksum of a value's bytes (stored
//    blobs, EC siblings and manifests, GET verification). Values run to
//    64 KiB and more, so it is XXH64, which hashes four 8-byte lanes per
//    step instead of one byte.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace memfss::hash {

/// Thaler-Ravishankar random-weight function:
///   W(S, K) = (A * ((A * S + B) xor K) + B) mod 2^31
/// with A = 1103515245, B = 12345 (the classic C LCG constants).
/// `server` and `key` are 31-bit quantities; higher bits are folded in.
std::uint32_t tr_weight(std::uint32_t server, std::uint32_t key);

/// 64-bit mix of two values (server id, key digest) into a score.
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

/// FNV-1a over bytes; stable across platforms.
std::uint64_t fnv1a(std::string_view bytes);

/// The checksum of a stored value's content: XXH64 with seed 0, the same
/// value on every platform (content_checksum({}) == 0xEF46DB3751D8E999).
/// Every place that hashes or verifies value bytes calls this rather than
/// naming an algorithm (DESIGN.md §14).
std::uint64_t content_checksum(std::span<const std::uint8_t> bytes);

/// Digest a string key for use with mix64/tr_weight.
std::uint64_t key_digest(std::string_view key);

/// Incremental FNV-1a: start from fnv1a_seed(), fold bytes (or the decimal
/// rendering of an integer) in one at a time. Folding the same byte
/// sequence yields exactly fnv1a() of the equivalent string, so composite
/// keys ("i<ino>:<idx>") can be digested without materializing the string.
constexpr std::uint64_t fnv1a_seed() { return 0xcbf29ce484222325ull; }
constexpr std::uint64_t fnv1a_byte(std::uint64_t h, unsigned char c) {
  return (h ^ c) * 0x100000001b3ull;
}

/// Fold the decimal digits of `value` (no sign, no padding) into `h`.
std::uint64_t fnv1a_decimal(std::uint64_t h, std::uint64_t value);

/// Fold a 64-bit digest to the 31-bit domain tr_weight expects.
std::uint32_t fold31(std::uint64_t x);

}  // namespace memfss::hash
