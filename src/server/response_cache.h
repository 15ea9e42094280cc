#ifndef MDS_SERVER_RESPONSE_CACHE_H_
#define MDS_SERVER_RESPONSE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/slab_pool.h"
#include "common/status.h"

namespace mds {

/// Policy gate shared by the server's populate path and its tests: only a
/// finalized OK reply that is not degraded and skipped no pages may enter
/// the cache. A degraded answer reflects a transient storage fault; caching
/// it would let the fault outlive its cause and be replayed to healthy
/// readers.
inline bool ReplyCacheable(const Status& status, bool degraded,
                           uint64_t pages_skipped) {
  return status.ok() && !degraded && pages_skipped == 0;
}

/// Byte-bounded sharded LRU memoizing served read-only replies.
///
/// The paper's workload is read-dominated: the same point counts and small
/// box queries hit the color-space indexes over and over, so a served reply
/// is an ideal memoization target. An entry is keyed by
/// `(request type, dataset epoch, canonical request body bytes)` — the body
/// bytes exclude the per-request deadline prefix, so two requests that differ
/// only in deadline share an entry — and holds the reply payload *after* the
/// message header (wire-encoded Status + body) plus the reply's extra flag
/// bits, so a hit reproduces the original reply byte for byte under the
/// requester's own request id.
///
/// The payload tail lives in a refcounted SlabPool slice: a hit hands back
/// a reference (no byte copy) that the connection's write queue pins until
/// the kernel has taken the bytes, even if the entry is evicted or replaced
/// mid-flush. Byte accounting is therefore at slice-class granularity — an
/// entry is charged the slice's *capacity* (the memory actually held), not
/// its payload length.
///
/// Invalidation is wholesale: the dataset's monotonically increasing epoch is
/// part of every key, so a reload/mutation bumps the epoch (one atomic store)
/// and every cached reply simply stops matching. Stale entries are not
/// tracked per-entry; they age out of the LRU under the byte bound.
///
/// Capacity is bounded in bytes, split evenly across shards (each shard is an
/// independent mutex + LRU list + map, so concurrent I/O threads contend
/// only when they collide on a shard). An entry whose charge alone exceeds
/// its shard's budget is rejected outright — one huge reply cannot wipe the
/// cache.
///
/// Thread safety: fully thread-safe. Lookup/Insert take one shard mutex;
/// hit/miss/insert/evict counters are relaxed atomics read by Stats().
class ResponseCache {
 public:
  /// `max_bytes` bounds the sum of entry charges (key + slice capacity +
  /// fixed overhead) across all shards. `num_shards` is clamped to >= 1;
  /// the default suits a handful of concurrent I/O threads.
  explicit ResponseCache(size_t max_bytes, size_t num_shards = 8);

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// A memoized reply: the extra header flag bits the original reply
  /// carried and a reference to the payload bytes after the message
  /// header (shared with the cache entry — do not mutate).
  struct CachedReply {
    uint32_t flags = 0;
    SlabPool::Slice tail;
  };

  /// Probes `(type, epoch, body)`; on a hit references the reply into
  /// `out` (no payload copy), refreshes LRU recency and counts a hit.
  /// Counts a miss otherwise.
  bool Lookup(uint16_t type, uint64_t epoch, const uint8_t* body,
              size_t body_len, CachedReply* out);

  /// Memoizes a reply under `(type, epoch, body)`, replacing any existing
  /// entry, then evicts least-recently-used entries until the shard fits
  /// its budget. The cache takes a reference on `tail` (sharing it with
  /// the caller's copy). Oversized entries are dropped silently.
  void Insert(uint16_t type, uint64_t epoch, const uint8_t* body,
              size_t body_len, uint32_t flags, SlabPool::Slice tail);

  struct StatsSnapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t bytes = 0;    ///< current charged bytes, <= max_bytes
    uint64_t entries = 0;  ///< current entry count
  };
  StatsSnapshot Stats() const;

  size_t max_bytes() const { return max_bytes_; }

  /// Test hook: recomputes the byte accounting by walking every shard and
  /// summing live entry charges. Stats().bytes must equal this at every
  /// quiescent point — the accounting-drift invariant the hammer test
  /// checks after randomized replace/evict sequences.
  uint64_t DebugRecomputeBytes() const;

 private:
  struct Entry {
    std::string key;
    uint32_t flags = 0;
    SlabPool::Slice tail;
    size_t charge = 0;
  };

  /// One lock domain: MRU at the front of `lru`; `map` views alias the
  /// list entries' key storage (list nodes never move on splice).
  struct Shard {
    mutable std::mutex mu;
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> map;
    size_t bytes = 0;
  };

  static std::string MakeKey(uint16_t type, uint64_t epoch,
                             const uint8_t* body, size_t body_len);
  Shard* ShardFor(std::string_view key);
  /// Unlinks one entry from `shard` (map + list + byte accounting).
  void EraseLocked(Shard* shard,
                   std::unordered_map<std::string_view,
                                      std::list<Entry>::iterator>::iterator it);

  const size_t max_bytes_;
  const size_t shard_bytes_;  // per-shard budget
  std::vector<Shard> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace mds

#endif  // MDS_SERVER_RESPONSE_CACHE_H_
