// Protocol codec property tests (DESIGN.md §13): the FrameDecoder must
// be the exact inverse of encode() no matter how the byte stream is
// sliced, and must *never* crash or over-allocate on adversarial
// input -- every feed ends in need_more, a decoded frame, or a sticky
// error, nothing else.
//
//   1. Round-trip: random frames (both kinds, all opcodes, empty and
//      large keys/values) encode -> decode to equal frames.
//   2. Split-feed: the same byte stream fed 1 byte at a time, and in
//      random-sized slices, decodes to the identical frame sequence.
//   3. Mutation fuzz: >= 100k random byte mutations over valid streams;
//      the decoder must always return need_more/frame/error and never
//      read out of bounds (ASan is the referee) or allocate from a
//      length prefix beyond its bound.
//   4. Checksum equivalence: body_checksum equals a plain reference
//      byte loop for every length and alignment, large random bodies
//      and an all-0xFF body of the maximum frame size.
//   5. Appending many frames to one buffer reallocates O(log n) times.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "netio/frame.hpp"

namespace memfss::netio {
namespace {

Frame random_request(Rng& rng) {
  Frame f;
  f.kind = Frame::Kind::request;
  f.opcode = static_cast<std::uint8_t>(rng.uniform_u64(1, 5));
  f.tenant = static_cast<std::uint32_t>(rng.uniform_u64(0, 1u << 20));
  f.request_id = rng.next_u64();
  const std::size_t klen = rng.uniform_u64(0, 64);
  for (std::size_t i = 0; i < klen; ++i)
    f.key.push_back(static_cast<char>(rng.uniform_u64(0, 255)));
  if (f.opcode == static_cast<std::uint8_t>(Opcode::put)) {
    const std::size_t vlen = rng.uniform_u64(0, 4096);
    f.value.resize(vlen);
    for (auto& b : f.value)
      b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
  }
  return f;
}

Frame random_response(Rng& rng) {
  Frame f;
  f.kind = Frame::Kind::response;
  f.status = static_cast<std::uint8_t>(rng.uniform_u64(0, 16));
  f.flags = static_cast<std::uint8_t>(rng.uniform_u64(0, 7));
  f.retry_after_us = static_cast<std::uint32_t>(rng.uniform_u64(0, 1u << 30));
  f.request_id = rng.next_u64();
  f.seq = rng.next_u64();
  f.checksum = rng.next_u64();
  if (rng.chance(0.25)) {
    // Ghost-style response: logical size + checksum, no payload bytes.
    f.value_size = static_cast<std::uint32_t>(rng.uniform_u64(1, 1u << 24));
  } else {
    const std::size_t vlen = rng.uniform_u64(0, 4096);
    f.value.resize(vlen);
    for (auto& b : f.value)
      b = static_cast<std::uint8_t>(rng.uniform_u64(0, 255));
    f.value_size = static_cast<std::uint32_t>(f.value.size());
  }
  return f;
}

Frame random_frame(Rng& rng) {
  return rng.chance(0.5) ? random_request(rng) : random_response(rng);
}

TEST(NetioCodec, RoundTripRandomFrames) {
  Rng rng(1);
  for (int iter = 0; iter < 2000; ++iter) {
    const Frame in = random_frame(rng);
    FrameDecoder dec;
    const auto bytes = encode(in);
    dec.feed(bytes.data(), bytes.size());
    Frame out;
    ASSERT_EQ(dec.next(out), Decode::frame) << "iter " << iter;
    EXPECT_EQ(out, in) << "iter " << iter;
    EXPECT_EQ(dec.next(out), Decode::need_more);
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

TEST(NetioCodec, OneByteAtATimeDecoding) {
  Rng rng(2);
  std::vector<Frame> frames;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 64; ++i) {
    frames.push_back(random_frame(rng));
    encode_frame(frames.back(), stream);
  }
  FrameDecoder dec;
  std::size_t decoded = 0;
  for (const std::uint8_t b : stream) {
    dec.feed(&b, 1);
    Frame out;
    Decode d;
    while ((d = dec.next(out)) == Decode::frame) {
      ASSERT_LT(decoded, frames.size());
      EXPECT_EQ(out, frames[decoded]);
      ++decoded;
    }
    ASSERT_EQ(d, Decode::need_more);
  }
  EXPECT_EQ(decoded, frames.size());
}

TEST(NetioCodec, RandomSplitDecoding) {
  Rng rng(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<Frame> frames;
    std::vector<std::uint8_t> stream;
    const int n = static_cast<int>(rng.uniform_u64(1, 32));
    for (int i = 0; i < n; ++i) {
      frames.push_back(random_frame(rng));
      encode_frame(frames.back(), stream);
    }
    FrameDecoder dec;
    std::size_t decoded = 0, off = 0;
    while (off < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.uniform_u64(1, 300), stream.size() - off);
      dec.feed(stream.data() + off, chunk);
      off += chunk;
      Frame out;
      Decode d;
      while ((d = dec.next(out)) == Decode::frame) {
        ASSERT_LT(decoded, frames.size());
        EXPECT_EQ(out, frames[decoded]);
        ++decoded;
      }
      ASSERT_EQ(d, Decode::need_more);
    }
    EXPECT_EQ(decoded, frames.size());
  }
}

// Decoder bound: a length prefix past max_body must be a protocol
// error, not a 2 GiB allocation.
TEST(NetioCodec, OversizedLengthPrefixIsError) {
  std::vector<std::uint8_t> bytes;
  const std::uint32_t magic = kRequestMagic;
  const std::uint32_t body = 1u << 31;
  bytes.resize(8);
  std::memcpy(bytes.data(), &magic, 4);
  std::memcpy(bytes.data() + 4, &body, 4);
  FrameDecoder dec(1u << 20);
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(dec.next(out), Decode::error);
  EXPECT_TRUE(dec.failed());
  // Sticky: more bytes never resurrect the stream.
  dec.feed(bytes.data(), bytes.size());
  EXPECT_EQ(dec.next(out), Decode::error);
}

TEST(NetioCodec, BadMagicIsError) {
  Rng rng(4);
  auto bytes = encode(random_frame(rng));
  bytes[0] ^= 0xff;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame out;
  EXPECT_EQ(dec.next(out), Decode::error);
  EXPECT_FALSE(dec.error().empty());
}

// The acceptance-criteria fuzz loop: >= 100k mutated frames, decoder
// never crashes, every next() is need_more/frame/error.
TEST(NetioCodec, MutationFuzzNeverCrashes) {
  Rng rng(5);
  std::uint64_t mutations = 0, decoded = 0, errors = 0;
  while (mutations < 120000) {
    // A small valid stream, then 1-4 byte mutations anywhere in it.
    std::vector<std::uint8_t> stream;
    const int n = static_cast<int>(rng.uniform_u64(1, 4));
    for (int i = 0; i < n; ++i) encode_frame(random_frame(rng), stream);
    const int flips = static_cast<int>(rng.uniform_u64(1, 4));
    for (int i = 0; i < flips; ++i, ++mutations) {
      const std::size_t pos = rng.uniform_u64(0, stream.size() - 1);
      switch (rng.uniform_u64(0, 2)) {
        case 0: stream[pos] ^= 1u << rng.uniform_u64(0, 7); break;
        case 1: stream[pos] = static_cast<std::uint8_t>(
                    rng.uniform_u64(0, 255)); break;
        default: stream[pos] = 0xff; break;
      }
    }
    // Also fuzz truncation: sometimes drop a tail.
    if (rng.chance(0.3))
      stream.resize(rng.uniform_u64(0, stream.size()));

    FrameDecoder dec(1u << 20);
    std::size_t off = 0;
    while (off < stream.size()) {
      const std::size_t chunk =
          std::min<std::size_t>(rng.uniform_u64(1, 4096), stream.size() - off);
      dec.feed(stream.data() + off, chunk);
      off += chunk;
      Frame out;
      for (;;) {
        const Decode d = dec.next(out);
        if (d == Decode::frame) { ++decoded; continue; }
        ASSERT_TRUE(d == Decode::need_more || d == Decode::error);
        if (d == Decode::error) ++errors;
        break;
      }
      if (dec.failed()) break;
    }
  }
  ASSERT_GE(mutations, 100000u);
  // Both outcomes must actually occur or the fuzz has no teeth.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(errors, 0u);
}

// Torn-frame delivery (ISSUE 9 satellite): a valid multi-frame stream
// fed through *every* split point -- including splits inside the 8-byte
// length prefix and inside a body -- must decode to the exact frame
// sequence, never a partial frame, never a stuck stream. Each split
// point gets the stream twice: once torn at the split, then the whole
// stream again through the same decoder (a decoder that survives a torn
// delivery must keep decoding the connection afterwards).
TEST(NetioCodec, TornFrameEverySplitPointTwice) {
  Rng rng(6);
  std::vector<Frame> frames;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 4; ++i) {
    Frame f = random_frame(rng);
    // Keep payloads small so every-split-point stays fast.
    if (f.value.size() > 48) f.value.resize(48);
    if (f.kind == Frame::Kind::response)
      f.value_size = static_cast<std::uint32_t>(f.value.size());
    frames.push_back(f);
    encode_frame(frames.back(), stream);
  }
  const auto drain = [&](FrameDecoder& dec, std::size_t& decoded) {
    Frame out;
    Decode d;
    while ((d = dec.next(out)) == Decode::frame) {
      EXPECT_EQ(out, frames[decoded % frames.size()]);
      ++decoded;
    }
    ASSERT_EQ(d, Decode::need_more);
  };
  for (std::size_t split = 0; split <= stream.size(); ++split) {
    FrameDecoder dec;
    std::size_t decoded = 0;
    // Pass 1: torn at `split` (split == 0 / size() degenerate to one
    // feed; interior splits land inside the prefix and inside bodies).
    dec.feed(stream.data(), split);
    ASSERT_NO_FATAL_FAILURE(drain(dec, decoded));
    if (split < kHeaderLen)
      EXPECT_EQ(decoded, 0u) << "partial frame yielded at split " << split;
    dec.feed(stream.data() + split, stream.size() - split);
    ASSERT_NO_FATAL_FAILURE(drain(dec, decoded));
    ASSERT_EQ(decoded, frames.size()) << "stuck at split " << split;
    // Pass 2: the same decoder keeps working on an untorn replay.
    dec.feed(stream.data(), stream.size());
    ASSERT_NO_FATAL_FAILURE(drain(dec, decoded));
    ASSERT_EQ(decoded, 2 * frames.size()) << "stuck after split " << split;
    EXPECT_FALSE(dec.failed());
    EXPECT_EQ(dec.buffered(), 0u);
  }
}

// Integrity property behind the chaos layer: flipping any single bit of
// an encoded frame must never decode to a (wrong) frame. Body flips are
// caught by the body checksum, so they must report a hard error; header
// flips may instead leave the decoder waiting for a longer body
// (need_more), which is equally safe -- no wrong data is surfaced.
TEST(NetioCodec, SingleBitFlipNeverYieldsAFrame) {
  Rng rng(7);
  std::uint64_t body_flips = 0, header_errors = 0;
  for (int iter = 0; iter < 24; ++iter) {
    Frame f = random_frame(rng);
    if (f.value.size() > 128) f.value.resize(128);
    if (f.kind == Frame::Kind::response && !f.value.empty())
      f.value_size = static_cast<std::uint32_t>(f.value.size());
    const auto bytes = encode(f);
    for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutated = bytes;
        mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
        FrameDecoder dec;
        dec.feed(mutated.data(), mutated.size());
        Frame out;
        const Decode d = dec.next(out);
        ASSERT_NE(d, Decode::frame)
            << "silent corruption at byte " << pos << " bit " << bit;
        if (pos >= kHeaderLen) {
          // Any body flip shifts the checksum by a nonzero delta.
          ASSERT_EQ(d, Decode::error)
              << "undetected body flip at byte " << pos << " bit " << bit;
          ++body_flips;
        } else if (d == Decode::error) {
          ++header_errors;
        }
      }
    }
  }
  EXPECT_GT(body_flips, 0u);
  EXPECT_GT(header_errors, 0u);
}

// The checksum as the wire format defines it, one byte at a time: the
// body sum with the two checksum bytes read as zero, mod 65521, 0 sent
// as 0xFFFF. body_checksum must agree on every value.
std::uint16_t reference_checksum(const std::uint8_t* body, std::size_t n) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (i != kChecksumOffset && i != kChecksumOffset + 1) sum += body[i];
  const auto r = static_cast<std::uint16_t>(sum % 65521u);
  return r == 0 ? 0xffffu : r;
}

TEST(NetioCodec, BodyChecksumMatchesReferenceEveryLengthAndOffset) {
  Rng rng(11);
  std::vector<std::uint8_t> buf(300 + 64);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t off = 0; off < 64; ++off)
    for (std::size_t n = 0; n <= 300; ++n)
      ASSERT_EQ(body_checksum(buf.data() + off, n),
                reference_checksum(buf.data() + off, n))
          << "n=" << n << " off=" << off;
}

TEST(NetioCodec, BodyChecksumMatchesReferenceOnLargeBodies) {
  Rng rng(12);
  std::vector<std::uint8_t> random(1u << 20);
  for (auto& b : random) b = static_cast<std::uint8_t>(rng.next_u64());
  EXPECT_EQ(body_checksum(random.data(), random.size()),
            reference_checksum(random.data(), random.size()));
  // The largest sum a frame can produce: every byte 0xFF at the maximum
  // body length the decoder accepts.
  const std::vector<std::uint8_t> ones(kDefaultMaxBody, 0xFF);
  EXPECT_EQ(body_checksum(ones.data(), ones.size()),
            reference_checksum(ones.data(), ones.size()));
  // A sum that is 0 mod 65521 is sent as 0xFFFF: byte 0 plus the 65520
  // ones after the (ignored, nonzero) checksum field sum to 65521.
  std::vector<std::uint8_t> zero_sum(4 + 65520, 1);
  zero_sum[1] = 0;
  EXPECT_EQ(body_checksum(zero_sum.data(), zero_sum.size()), 0xFFFFu);
  EXPECT_EQ(reference_checksum(zero_sum.data(), zero_sum.size()), 0xFFFFu);
}

TEST(NetioCodec, AppendingManyFramesReallocatesLogarithmically) {
  Rng rng(13);
  std::vector<Frame> frames;
  for (int i = 0; i < 10000; ++i) {
    frames.push_back(random_frame(rng));
    if (frames.back().value.size() > 256) frames.back().value.resize(256);
    if (frames.back().kind == Frame::Kind::response &&
        !frames.back().value.empty())
      frames.back().value_size =
          static_cast<std::uint32_t>(frames.back().value.size());
  }
  std::vector<std::uint8_t> stream;
  std::size_t reallocations = 0;
  for (const Frame& f : frames) {
    const std::size_t cap = stream.capacity();
    encode_frame(f, stream);
    if (stream.capacity() != cap) ++reallocations;
  }
  // Doubling from the first frame to the final size, plus slack.
  EXPECT_LE(reallocations,
            static_cast<std::size_t>(std::log2(double(stream.size()))) + 2)
      << stream.size() << " bytes";
  // The shared stream decodes to exactly the frames, as the one-frame-
  // per-buffer encoding does.
  std::vector<std::uint8_t> separate;
  for (const Frame& f : frames) {
    const auto one = encode(f);
    separate.insert(separate.end(), one.begin(), one.end());
  }
  EXPECT_EQ(stream, separate);
  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  Frame out;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_EQ(dec.next(out), Decode::frame) << i;
    ASSERT_EQ(out, frames[i]) << i;
  }
  EXPECT_EQ(dec.next(out), Decode::need_more);
}

TEST(NetioCodec, EncodingFromAValueSpanEqualsEncodingTheFrameValue) {
  Rng rng(14);
  for (int iter = 0; iter < 200; ++iter) {
    Frame f = random_frame(rng);
    const auto expected = encode(f);
    const std::vector<std::uint8_t> value = std::move(f.value);
    f.value.clear();
    std::vector<std::uint8_t> got;
    encode_frame(f, value, got);
    ASSERT_EQ(got, expected) << "iter " << iter;
  }
}

}  // namespace
}  // namespace memfss::netio
