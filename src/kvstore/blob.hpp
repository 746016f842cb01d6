// Blob: a stored value that is either materialized (real bytes, used by
// unit tests and the standalone examples) or *ghost* (size-only
// accounting, used by cluster experiments where simulated datasets reach
// hundreds of GB and holding real payloads would be absurd). Both kinds
// carry a checksum so corruption tests work uniformly: a materialized
// blob's is hash::content_checksum of its bytes, a ghost's is mix64 of its
// size and tag.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace memfss::kvstore {

class Blob {
 public:
  Blob() = default;

  /// A blob backed by real bytes.
  static Blob materialized(std::vector<std::uint8_t> bytes);

  /// A blob backed by real bytes whose checksum the caller already
  /// holds, so large values are not hashed twice. `checksum` must be
  /// exactly hash::content_checksum over `bytes` -- computed or verified
  /// over these very bytes just before the call; the result is
  /// indistinguishable from materialized(bytes).
  static Blob materialized_with_checksum(std::vector<std::uint8_t> bytes,
                                         std::uint64_t checksum);

  /// A size-only blob; `tag` stands in for the content (checksummed).
  static Blob ghost(Bytes size, std::uint64_t tag = 0);

  Bytes size() const { return size_; }
  bool is_ghost() const { return data_.empty() && size_ > 0; }
  std::uint64_t checksum() const { return checksum_; }
  std::span<const std::uint8_t> bytes() const { return data_; }

  /// Move the bytes out of an expiring blob without copying them; the
  /// blob is left empty, as if default-constructed.
  std::vector<std::uint8_t> take_bytes() && {
    size_ = 0;
    checksum_ = 0;
    corrupted_ = false;
    return std::move(data_);
  }

  bool operator==(const Blob& o) const {
    return size_ == o.size_ && checksum_ == o.checksum_ && data_ == o.data_;
  }

  /// Whether the stored checksum still matches the content. Ghost blobs
  /// are checksum-carrying only (nothing to recompute), so they always
  /// verify unless corrupt_for_test() was called.
  bool verify() const;

  /// Test hook: damage the blob (bit-flip for materialized data, checksum
  /// scramble for ghosts) so scrubbing/fault-injection tests have
  /// something to find.
  void corrupt_for_test();

 private:
  Bytes size_ = 0;
  std::uint64_t checksum_ = 0;
  bool corrupted_ = false;  ///< test-injection flag (ghost corruption)
  std::vector<std::uint8_t> data_;
};

}  // namespace memfss::kvstore
