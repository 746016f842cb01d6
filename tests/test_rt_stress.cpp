// Stress test: racing put/get/del/evict/close/clear across shards under
// a deliberately tight aggregate cap, asserting the accounting
// invariants from DESIGN.md §11 the whole time:
//
//   1. used() never exceeds capacity() at any sampled instant (the
//      reserve-before-insert gate);
//   2. used() never goes negative -- Bytes is unsigned, so an
//      underflow would wrap far past the cap and trip invariant 1;
//   3. after quiesce, used() equals the sum of per-shard accounting,
//      and each shard's accounting equals a recomputation from its
//      surviving keys.
//
// The cap is sized so out_of_memory rejections fire constantly
// (exercising the reserve/release path), and a chaos thread clears and
// closes shards mid-run so the eviction/unavailable paths race the
// writers too. The clears are paced by mutator progress, not by the
// chaos thread's own loop, so the cap binds between clears at any
// relative thread speed (a ThreadSanitizer build slows the mutators far
// more than the near-empty chaos loop).
// Op streams come from the shared seed-deterministic generator
// (rt/opstream.hpp) -- the same one the in-process loadgen and the
// socket replay client use -- so the put/get/del mix here is the same
// reproducible stream family every other harness replays; only the
// evict/clear/close chaos stays locally randomized.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "rt/opstream.hpp"
#include "rt/sharded_store.hpp"

namespace memfss::rt {
namespace {

constexpr std::size_t kShards = 8;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kOpsPerThread = 30000;
constexpr std::size_t kKeySpace = 128;
constexpr Bytes kMaxValue = 512;
// Roughly a third of the worst-case live set: ooms are routine.
constexpr Bytes kCap =
    kKeySpace * (kMaxValue + kvstore::Store::kPerKeyOverhead) / 3;
// Mutator ops (summed over threads) between two chaos clears: enough
// puts to refill one cleared shard's eighth of the live set many times.
constexpr std::uint64_t kOpsPerClear = 1024;

/// Stream shape shared with the loadgen/socket harnesses: the put/get/
/// del mix and key popularity are a pure function of (seed, thread).
StreamOptions stress_stream(std::size_t ops) {
  StreamOptions s;
  s.seed = 0xabcdef;
  s.ops_per_thread = ops;
  s.get_fraction = 0.25;
  s.del_fraction = 0.20;
  s.key_space = kKeySpace;
  return s;
}

TEST(RtStress, AccountingInvariantsUnderRacingMutators) {
  ShardedStore store({kShards, kCap, ""});
  std::atomic<std::uint64_t> cap_violations{0};
  std::atomic<std::uint64_t> ooms{0};
  std::atomic<std::uint64_t> progress{0};  ///< mutator ops done

  auto sample = [&] {
    // Relaxed sample mid-race: an underflow wraps Bytes to ~2^64 and an
    // over-admission lands above the cap; both trip this.
    if (store.used() > store.capacity()) cap_violations.fetch_add(1);
  };

  auto mutator = [&](std::size_t t) {
    const auto stream = generate_stream(stress_stream(kOpsPerThread), t);
    Rng rng(0xabcdef + t);  // sizes + evict interleave only
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const GenOp& g = stream[i];
      const std::string key = loadgen_key(g.key_index);
      switch (g.type) {
        case Op::Type::put: {
          const auto st = store.put("", key,
                                    kvstore::Blob::ghost(
                                        rng.uniform_u64(0, kMaxValue), i));
          if (st.code() == Errc::out_of_memory) ooms.fetch_add(1);
          break;
        }
        case Op::Type::get: (void)store.get("", key); break;
        case Op::Type::del: (void)store.del("", key); break;
        default: break;
      }
      if (rng.chance(0.10)) (void)store.evict(key);
      sample();
      progress.fetch_add(1, std::memory_order_relaxed);
    }
  };

  std::atomic<bool> done{false};
  auto chaos = [&] {
    Rng rng(99);
    std::size_t clears = 0;
    std::uint64_t next_clear = kOpsPerClear;
    while (!done.load()) {
      sample();
      std::this_thread::yield();
      if (progress.load(std::memory_order_relaxed) < next_clear) continue;
      next_clear += kOpsPerClear;
      (void)store.clear_shard(rng.uniform_u64(0, kShards - 1));
      // One shard goes down for good mid-run; ops on it must fail
      // unavailable without disturbing anyone's accounting.
      if (++clears == 50) store.close_shard(rng.uniform_u64(0, kShards - 1));
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(mutator, t);
  std::thread chaos_thread(chaos);
  for (auto& th : threads) th.join();
  done.store(true);
  chaos_thread.join();

  EXPECT_EQ(cap_violations.load(), 0u);
  EXPECT_GT(ooms.load(), 0u) << "cap never bound; stress has no teeth";
  RecordProperty("ooms", std::to_string(ooms.load()));

  // Quiesced: the atomic aggregate, the per-shard tallies, and a
  // recomputation from surviving keys must all agree.
  Bytes shard_sum = 0, recomputed = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    shard_sum += store.shard_used(s);
    recomputed += store.shard_recomputed_used(s);
  }
  EXPECT_EQ(store.used(), shard_sum);
  EXPECT_EQ(shard_sum, recomputed);
  EXPECT_LE(store.used(), store.capacity());
}

// Same invariants with every op forced through one overloaded shard:
// maximal contention on a single mutex + the atomic gate.
TEST(RtStress, SingleShardContention) {
  ShardedStore store({1, 32 * (kMaxValue + kvstore::Store::kPerKeyOverhead),
                      ""});
  auto mutator = [&](std::size_t t) {
    StreamOptions so = stress_stream(10000);
    so.seed = 7;
    so.get_fraction = 0.20;
    so.key_space = 64;
    const auto stream = generate_stream(so, t);
    Rng rng(7 + t);  // value sizes only
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const GenOp& g = stream[i];
      const std::string key = loadgen_key(g.key_index);
      switch (g.type) {
        case Op::Type::put:
          (void)store.put("", key, kvstore::Blob::ghost(
                                       rng.uniform_u64(0, kMaxValue), i));
          break;
        case Op::Type::del: (void)store.del("", key); break;
        default: (void)store.get("", key); break;
      }
      ASSERT_LE(store.used(), store.capacity());
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) threads.emplace_back(mutator, t);
  for (auto& th : threads) th.join();
  EXPECT_EQ(store.used(), store.shard_used(0));
  EXPECT_EQ(store.shard_used(0), store.shard_recomputed_used(0));
}

}  // namespace
}  // namespace memfss::rt
