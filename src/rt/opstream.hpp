// Seed-deterministic op streams, factored out of the loadgen so every
// harness that replays a workload -- the closed-loop driver
// (rt::run_loadgen, in process or over sockets), the network chaos
// soak, the sharded-store stress test and perfbench -- generates the
// *identical* stream from the same (seed, thread) pair. The
// request builders (stream_op, and op_frame for the socket harnesses)
// and the result-digest folding live here too, so the in-process and
// over-the-wire replays of one stream can be compared digest-for-digest:
// with one client thread, one worker, and one connection, both
// transports must produce the same `result_digest`.
//
// Everything here is a pure function of its arguments: no clocks, no
// globals, no platform-dependent iteration order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/types.hpp"
#include "hash/hashes.hpp"
#include "kvstore/blob.hpp"
#include "netio/frame.hpp"
#include "rt/server.hpp"

namespace memfss::rt {

/// One element of a generated op stream.
struct GenOp {
  Op::Type type = Op::Type::get;
  std::uint32_t key_index = 0;
};

/// The knobs that shape a stream (LoadgenOptions::stream), kept apart
/// so the generator can be shared without dragging in server sizing.
struct StreamOptions {
  std::uint64_t seed = 1;
  std::size_t ops_per_thread = 20000;
  double get_fraction = 0.5;  ///< P(get); rest split put/del
  double del_fraction = 0.0;  ///< P(del)
  double zipf_theta = 0.0;    ///< key skew (0 = uniform)
  std::size_t key_space = 16384;
};

/// The deterministic op stream for one client thread: a pure function
/// of (opt.seed, opt mix parameters, thread_index).
std::vector<GenOp> generate_stream(const StreamOptions& opt,
                                   std::size_t thread_index);

/// Key string for a key index ("k<index>").
std::string loadgen_key(std::uint32_t key_index);

/// Deterministic put payload: a cheap byte pattern keyed by
/// (key, op index) so overwrites change content and a replayed stream
/// reproduces it byte-for-byte on either side of a socket.
kvstore::Blob stream_value(Bytes size, std::uint32_t key_index,
                           std::size_t op_index);

/// The request for stream op `g` at stream offset `op_index`, under
/// `key` (each harness names its own key space): a put carries
/// stream_value(value_size, g.key_index, op_index).
Op stream_op(const GenOp& g, std::string key, Bytes value_size,
             std::size_t op_index, std::uint32_t tenant = 0);

/// `op` as a wire request with id `request_id`; a put's bytes move into
/// the frame without a copy.
netio::Frame op_frame(Op&& op, std::uint64_t request_id);

/// Fold one (op, result) pair into a running FNV-1a digest -- the
/// digest contract shared by the in-process and socket replay paths:
/// op type, key index, result code, and (for successful gets) the
/// value checksum, in submission order.
inline std::uint64_t fold_result(std::uint64_t digest, const GenOp& g,
                                 Errc code, std::uint64_t get_checksum) {
  digest = hash::fnv1a_byte(digest, static_cast<unsigned char>(g.type));
  digest = hash::fnv1a_decimal(digest, g.key_index);
  digest = hash::fnv1a_byte(digest, static_cast<unsigned char>(code));
  if (code == Errc::ok && g.type == Op::Type::get)
    digest = hash::fnv1a_decimal(digest, get_checksum);
  return digest;
}

/// Combine per-thread digests in thread order (the final fold both
/// replay paths report as `result_digest`).
inline std::uint64_t combine_digests(const std::vector<std::uint64_t>& per_thread) {
  std::uint64_t digest = hash::fnv1a_seed();
  for (const std::uint64_t d : per_thread)
    digest = hash::fnv1a_decimal(digest, d);
  return digest;
}

}  // namespace memfss::rt
