#include "server/response_cache.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/logging.h"

namespace mds {

namespace {

/// Fixed per-entry accounting overhead: list node, map slot, slice control
/// block. Deliberately generous so the byte bound is honest about real
/// memory, not just payload bytes.
constexpr size_t kEntryOverhead = 64;

/// Charge for one entry: key storage plus the slice *capacity* (the slab
/// class actually held, which for an oversize slice equals its length)
/// plus fixed overhead. Capacity, not size — a 300-byte tail in a 512-byte
/// slice pins 512 bytes of slab.
size_t EntryCharge(const std::string& key, const SlabPool::Slice& tail) {
  return key.size() + tail.capacity() + kEntryOverhead;
}

}  // namespace

ResponseCache::ResponseCache(size_t max_bytes, size_t num_shards)
    : max_bytes_(max_bytes),
      shard_bytes_(std::max<size_t>(1, max_bytes) /
                   std::max<size_t>(1, num_shards)),
      shards_(std::max<size_t>(1, num_shards)) {}

std::string ResponseCache::MakeKey(uint16_t type, uint64_t epoch,
                                   const uint8_t* body, size_t body_len) {
  std::string key;
  key.resize(sizeof(type) + sizeof(epoch) + body_len);
  std::memcpy(key.data(), &type, sizeof(type));
  std::memcpy(key.data() + sizeof(type), &epoch, sizeof(epoch));
  if (body_len != 0) {
    std::memcpy(key.data() + sizeof(type) + sizeof(epoch), body, body_len);
  }
  return key;
}

ResponseCache::Shard* ResponseCache::ShardFor(std::string_view key) {
  return &shards_[std::hash<std::string_view>{}(key) % shards_.size()];
}

bool ResponseCache::Lookup(uint16_t type, uint64_t epoch, const uint8_t* body,
                           size_t body_len, CachedReply* out) {
  const std::string key = MakeKey(type, epoch, body, body_len);
  Shard* shard = ShardFor(key);
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto it = shard->map.find(key);
    if (it != shard->map.end()) {
      // Refresh recency: splice moves the node without invalidating the
      // map's string_view into its key.
      shard->lru.splice(shard->lru.begin(), shard->lru, it->second);
      out->flags = it->second->flags;
      out->tail = it->second->tail;  // refcount++, no byte copy
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ResponseCache::EraseLocked(
    Shard* shard,
    std::unordered_map<std::string_view,
                       std::list<Entry>::iterator>::iterator it) {
  // Accounting invariant: a shard's bytes is exactly the sum of its live
  // entries' charges, so removing one can never underflow. A trip here
  // means a replace/evict path charged and discharged different amounts.
  MDS_CHECK(shard->bytes >= it->second->charge);
  shard->bytes -= it->second->charge;
  auto list_it = it->second;
  shard->map.erase(it);
  shard->lru.erase(list_it);
}

void ResponseCache::Insert(uint16_t type, uint64_t epoch, const uint8_t* body,
                           size_t body_len, uint32_t flags,
                           SlabPool::Slice tail) {
  Entry entry;
  entry.key = MakeKey(type, epoch, body, body_len);
  entry.flags = flags;
  entry.tail = std::move(tail);
  entry.charge = EntryCharge(entry.key, entry.tail);
  if (entry.charge > shard_bytes_) return;  // one reply can't wipe a shard

  Shard* shard = ShardFor(entry.key);
  uint64_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(shard->mu);
    auto existing = shard->map.find(entry.key);
    if (existing != shard->map.end()) {
      // Racing populates of the same request: last writer wins, no
      // double-charged duplicate entry. EraseLocked discharges the old
      // entry's bytes before the new charge lands below.
      EraseLocked(shard, existing);
    }
    while (shard->bytes + entry.charge > shard_bytes_ && !shard->lru.empty()) {
      auto victim = shard->map.find(shard->lru.back().key);
      EraseLocked(shard, victim);
      ++evicted;
    }
    shard->bytes += entry.charge;
    shard->lru.push_front(std::move(entry));
    shard->map.emplace(shard->lru.front().key, shard->lru.begin());
  }
  insertions_.fetch_add(1, std::memory_order_relaxed);
  if (evicted != 0) evictions_.fetch_add(evicted, std::memory_order_relaxed);
}

ResponseCache::StatsSnapshot ResponseCache::Stats() const {
  StatsSnapshot s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.insertions = insertions_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.bytes += shard.bytes;
    s.entries += shard.lru.size();
  }
  return s;
}

uint64_t ResponseCache::DebugRecomputeBytes() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const Entry& e : shard.lru) total += e.charge;
  }
  return total;
}

}  // namespace mds
