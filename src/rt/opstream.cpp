#include "rt/opstream.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "netio/client.hpp"

namespace memfss::rt {

namespace {

/// Cumulative Zipf(theta) distribution over `n` ranks, normalized to 1.
std::vector<double> zipf_cdf(std::size_t n, double theta) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = total;
  }
  for (auto& c : cdf) c /= total;
  return cdf;
}

std::uint32_t sample_key(Rng& rng, const std::vector<double>& cdf,
                         std::size_t key_space) {
  if (cdf.empty())
    return static_cast<std::uint32_t>(rng.uniform_u64(0, key_space - 1));
  const double u = rng.next_double();
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                            key_space - 1));
}

}  // namespace

std::string loadgen_key(std::uint32_t key_index) {
  return "k" + std::to_string(key_index);
}

std::vector<GenOp> generate_stream(const StreamOptions& opt,
                                   std::size_t thread_index) {
  // Per-thread stream seeded by mixing the run seed with the thread
  // index -- independent across threads, reproducible across runs.
  std::uint64_t s = opt.seed ^ (0x9e3779b97f4a7c15ull *
                                (static_cast<std::uint64_t>(thread_index) + 1));
  Rng rng(splitmix64(s));
  const auto cdf = opt.zipf_theta > 0.0
                       ? zipf_cdf(opt.key_space, opt.zipf_theta)
                       : std::vector<double>{};
  std::vector<GenOp> ops;
  ops.reserve(opt.ops_per_thread);
  for (std::size_t i = 0; i < opt.ops_per_thread; ++i) {
    GenOp op;
    const double u = rng.next_double();
    if (u < opt.get_fraction)
      op.type = Op::Type::get;
    else if (u < opt.get_fraction + opt.del_fraction)
      op.type = Op::Type::del;
    else
      op.type = Op::Type::put;
    op.key_index = sample_key(rng, cdf, opt.key_space);
    ops.push_back(op);
  }
  return ops;
}

kvstore::Blob stream_value(Bytes size, std::uint32_t key_index,
                           std::size_t op_index) {
  std::vector<std::uint8_t> bytes(size);
  std::uint64_t x = (static_cast<std::uint64_t>(key_index) << 32) ^
                    static_cast<std::uint64_t>(op_index);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(x = splitmix64(x));
  return kvstore::Blob::materialized(std::move(bytes));
}

Op stream_op(const GenOp& g, std::string key, Bytes value_size,
             std::size_t op_index, std::uint32_t tenant) {
  Op op;
  op.type = g.type;
  op.key = std::move(key);
  op.tenant = tenant;
  if (g.type == Op::Type::put)
    op.value = stream_value(value_size, g.key_index, op_index);
  return op;
}

netio::Frame op_frame(Op&& op, std::uint64_t request_id) {
  using netio::NetClient;
  switch (op.type) {
    case Op::Type::put:
      return NetClient::make_put(request_id, op.tenant, op.key,
                                 std::move(op.value).take_bytes());
    case Op::Type::del:
      return NetClient::make_del(request_id, op.tenant, op.key);
    default:  // streams hold only put, get and del
      return NetClient::make_get(request_id, op.tenant, op.key);
  }
}

}  // namespace memfss::rt
