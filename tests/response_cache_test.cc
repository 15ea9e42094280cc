// ResponseCache unit tests: key discrimination (type/epoch/body), LRU byte
// bound, replacement, oversize rejection, the ReplyCacheable policy gate,
// counter accounting, and a concurrent hammering test meant to run under
// TSan (.github/workflows/ci.yml runs this binary in the tsan job).

#include "server/response_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace mds {
namespace {

std::vector<uint8_t> Bytes(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::vector<uint8_t> TailBytes(const ResponseCache::CachedReply& hit) {
  if (!hit.tail) return {};
  return std::vector<uint8_t>(hit.tail.data(), hit.tail.data() + hit.tail.size());
}

/// Copies `len` bytes into a slab slice — the form the server's reply
/// path hands the cache.
SlabPool::Slice SliceOf(const void* data, size_t len) {
  SlabPool::Slice slice = SlabPool::Global().Allocate(len);
  if (slice) std::memcpy(slice.data(), data, len);
  return slice;
}

void Put(ResponseCache* cache, uint16_t type, uint64_t epoch,
         const std::string& body, const std::string& tail,
         uint32_t flags = 0) {
  const std::vector<uint8_t> b = Bytes(body);
  const std::vector<uint8_t> t = Bytes(tail);
  cache->Insert(type, epoch, b.data(), b.size(), flags,
                SliceOf(t.data(), t.size()));
}

bool Get(ResponseCache* cache, uint16_t type, uint64_t epoch,
         const std::string& body, ResponseCache::CachedReply* out) {
  const std::vector<uint8_t> b = Bytes(body);
  return cache->Lookup(type, epoch, b.data(), b.size(), out);
}

TEST(ResponseCacheTest, RoundTripPreservesTailAndFlags) {
  ResponseCache cache(1 << 20, 1);
  Put(&cache, 4, 1, "box-body", "reply-bytes", /*flags=*/0x10);

  ResponseCache::CachedReply hit;
  ASSERT_TRUE(Get(&cache, 4, 1, "box-body", &hit));
  EXPECT_EQ(TailBytes(hit), Bytes("reply-bytes"));
  EXPECT_EQ(hit.flags, 0x10u);
}

TEST(ResponseCacheTest, MissesOnTypeEpochAndBody) {
  ResponseCache cache(1 << 20, 1);
  Put(&cache, 4, 1, "body", "reply");

  ResponseCache::CachedReply hit;
  EXPECT_FALSE(Get(&cache, 5, 1, "body", &hit));   // different type
  EXPECT_FALSE(Get(&cache, 4, 2, "body", &hit));   // different epoch
  EXPECT_FALSE(Get(&cache, 4, 1, "body2", &hit));  // different body
  EXPECT_TRUE(Get(&cache, 4, 1, "body", &hit));

  const ResponseCache::StatsSnapshot s = cache.Stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.insertions, 1u);
}

TEST(ResponseCacheTest, EmptyBodyAndEmptyTailAreValid) {
  ResponseCache cache(1 << 20, 1);
  cache.Insert(3, 1, nullptr, 0, 0, SliceOf(nullptr, 0));
  ResponseCache::CachedReply hit;
  ASSERT_TRUE(cache.Lookup(3, 1, nullptr, 0, &hit));
  EXPECT_EQ(hit.tail.size(), 0u);
}

TEST(ResponseCacheTest, InsertReplacesExistingEntry) {
  ResponseCache cache(1 << 20, 1);
  Put(&cache, 4, 1, "body", "old-reply");
  Put(&cache, 4, 1, "body", "new-reply");

  ResponseCache::CachedReply hit;
  ASSERT_TRUE(Get(&cache, 4, 1, "body", &hit));
  EXPECT_EQ(TailBytes(hit), Bytes("new-reply"));
  EXPECT_EQ(cache.Stats().entries, 1u);
}

TEST(ResponseCacheTest, ByteBoundEvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is fully deterministic. Each entry
  // charges key (2 + 8 + 4 bytes) + tail (100) + overhead, so a 1 KiB
  // budget holds a handful of entries at most.
  ResponseCache cache(1024, 1);
  const std::string tail(100, 'x');
  for (int i = 0; i < 32; ++i) {
    Put(&cache, 4, 1, "body" + std::to_string(i), tail);
  }

  const ResponseCache::StatsSnapshot s = cache.Stats();
  EXPECT_LE(s.bytes, 1024u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_GT(s.entries, 0u);

  // The newest entry survives; the oldest was evicted.
  ResponseCache::CachedReply hit;
  EXPECT_TRUE(Get(&cache, 4, 1, "body31", &hit));
  EXPECT_FALSE(Get(&cache, 4, 1, "body0", &hit));
}

TEST(ResponseCacheTest, LookupRefreshesRecency) {
  ResponseCache cache(1024, 1);
  const std::string tail(100, 'x');
  Put(&cache, 4, 1, "keep", tail);
  Put(&cache, 4, 1, "drop", tail);

  // Touch "keep" so "drop" is the LRU victim when the budget overflows.
  ResponseCache::CachedReply hit;
  ASSERT_TRUE(Get(&cache, 4, 1, "keep", &hit));
  for (int i = 0; i < 8; ++i) {
    Put(&cache, 4, 1, "filler" + std::to_string(i), tail);
  }
  EXPECT_FALSE(Get(&cache, 4, 1, "drop", &hit));
}

TEST(ResponseCacheTest, OversizedEntryRejected) {
  ResponseCache cache(256, 1);
  const std::string huge(4096, 'x');
  Put(&cache, 4, 1, "body", huge);

  ResponseCache::CachedReply hit;
  EXPECT_FALSE(Get(&cache, 4, 1, "body", &hit));
  const ResponseCache::StatsSnapshot s = cache.Stats();
  EXPECT_EQ(s.insertions, 0u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(ResponseCacheTest, ShardCountClampedToAtLeastOne) {
  ResponseCache cache(1 << 20, 0);
  Put(&cache, 4, 1, "body", "reply");
  ResponseCache::CachedReply hit;
  EXPECT_TRUE(Get(&cache, 4, 1, "body", &hit));
}

TEST(ResponseCacheTest, StatsBytesAccountsInsertAndEvict) {
  ResponseCache cache(1 << 20, 4);
  EXPECT_EQ(cache.Stats().bytes, 0u);
  Put(&cache, 4, 1, "a", "reply-a");
  Put(&cache, 4, 1, "b", "reply-b");
  const ResponseCache::StatsSnapshot s = cache.Stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_GT(s.bytes, 0u);
  EXPECT_EQ(s.insertions, 2u);
  EXPECT_EQ(s.evictions, 0u);
}

// Satellite regression for the byte-accounting-drift class of bug: after
// an arbitrary mix of inserts, same-key replacements (with different tail
// sizes, so old and new charges differ) and bound-driven evictions, the
// incremental `bytes` counter must equal the sum of live entry charges.
// A replace path that charged the new entry without fully discharging the
// old one drifts here immediately.
TEST(ResponseCacheTest, ByteAccountingExactAfterRandomizedReplaceEvict) {
  ResponseCache cache(32 * 1024, 2);
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int i = 0; i < 20000; ++i) {
    const std::string body = "key" + std::to_string(next() % 48);
    const std::vector<uint8_t> b(body.begin(), body.end());
    // Tail sizes straddle several slab classes (and zero), so replacing
    // an entry usually changes its charge.
    const size_t tail_len = next() % 1500;
    const std::string tail(tail_len, 'r');
    if (next() % 4 == 0) {
      ResponseCache::CachedReply hit;
      cache.Lookup(4, 1, b.data(), b.size(), &hit);
    } else {
      cache.Insert(4, 1, b.data(), b.size(), 0,
                   SliceOf(tail.data(), tail_len));
    }
    if (i % 997 == 0) {
      EXPECT_EQ(cache.Stats().bytes, cache.DebugRecomputeBytes());
    }
  }
  const ResponseCache::StatsSnapshot s = cache.Stats();
  EXPECT_EQ(s.bytes, cache.DebugRecomputeBytes());
  EXPECT_LE(s.bytes, 32u * 1024u);
  EXPECT_GT(s.evictions, 0u);
}

TEST(ReplyCacheableTest, PolicyGate) {
  EXPECT_TRUE(ReplyCacheable(Status::OK(), false, 0));
  // Errors, degraded replies and partial scans must never be memoized.
  EXPECT_FALSE(ReplyCacheable(Status::Unavailable("x"), false, 0));
  EXPECT_FALSE(ReplyCacheable(Status::OK(), true, 0));
  EXPECT_FALSE(ReplyCacheable(Status::OK(), false, 3));
}

// Concurrent hammering over a shared key space: writers insert, readers
// look up, everyone touches overlapping keys. Run under TSan this proves
// the shard locking; the byte bound must also hold at every snapshot.
TEST(ResponseCacheTest, ConcurrentHammeringHoldsByteBound) {
  constexpr size_t kMaxBytes = 64 * 1024;
  ResponseCache cache(kMaxBytes, 4);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 4000;
  constexpr int kKeySpace = 64;

  std::atomic<uint64_t> observed_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cache, &observed_hits, kMaxBytes]() {
      const std::string tail(200 + t, 'v');
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string body =
            "key" + std::to_string((t * 7919 + i) % kKeySpace);
        const std::vector<uint8_t> b(body.begin(), body.end());
        if (i % 3 == 0) {
          const std::vector<uint8_t> tl(tail.begin(), tail.end());
          cache.Insert(4, 1, b.data(), b.size(), 0,
                       SliceOf(tl.data(), tl.size()));
        } else {
          ResponseCache::CachedReply hit;
          if (cache.Lookup(4, 1, b.data(), b.size(), &hit)) {
            observed_hits.fetch_add(1, std::memory_order_relaxed);
            // A hit must carry a tail some writer actually inserted.
            ASSERT_GE(hit.tail.size(), 200u);
            ASSERT_LT(hit.tail.size(), 200u + kThreads);
          }
        }
        if (i % 512 == 0) {
          ASSERT_LE(cache.Stats().bytes, kMaxBytes);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const ResponseCache::StatsSnapshot s = cache.Stats();
  EXPECT_LE(s.bytes, kMaxBytes);
  EXPECT_EQ(s.hits, observed_hits.load());
  EXPECT_GT(s.hits + s.misses, 0u);
}

}  // namespace
}  // namespace mds
