// Tests of the mdsc shard coordinator: the shard-map grammar, the pure
// merge helpers, and the full scatter-gather path end-to-end — parity
// over 2 and 4 shards against a single mdsd (rows AND ordering), replica
// failover under a mid-load backend kill, hedging against a stalled
// replica, graceful drain, and the per-shard routing counters. Shard
// pruning: parity over an exact grid (faces, gaps, distance ties), a
// NaN-row shard that publishes no box, a failed wave-one shard, routing
// boxes re-keyed by a reload, and the routing tails on the wire.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/socket.h"
#include "sdss/catalog.h"
#include "server/client.h"
#include "server/coordinator.h"
#include "server/dataset.h"
#include "server/server.h"

namespace mds {
namespace {

using protocol::WireNeighbor;

// --- ParseShardMap ---------------------------------------------------------

TEST(ParseShardMapTest, SemicolonsCommasAndReplicaOrder) {
  auto map =
      ParseShardMap("127.0.0.1:7001,127.0.0.1:7101;127.0.0.1:7002");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_EQ(map->shards.size(), 2u);
  ASSERT_EQ(map->shards[0].size(), 2u);  // two replicas, nearest first
  EXPECT_EQ(map->shards[0][0].port, 7001);
  EXPECT_EQ(map->shards[0][1].port, 7101);
  ASSERT_EQ(map->shards[1].size(), 1u);
  EXPECT_EQ(map->shards[1][0].host, "127.0.0.1");
  EXPECT_EQ(map->shards[1][0].port, 7002);
}

TEST(ParseShardMapTest, FileGrammarNewlinesCommentsBlanks) {
  auto map = ParseShardMap(
      "# the replica sets, one shard per line\n"
      "\n"
      "  127.0.0.1:7001 , 127.0.0.1:7101  \n"
      "127.0.0.1:7002\n");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_EQ(map->shards.size(), 2u);
  EXPECT_EQ(map->shards[0].size(), 2u);  // whitespace around ',' is trimmed
  EXPECT_EQ(map->shards[0][1].port, 7101);
}

TEST(ParseShardMapTest, RejectsMalformedEndpoints) {
  EXPECT_FALSE(ParseShardMap("").ok());
  EXPECT_FALSE(ParseShardMap("# only a comment\n").ok());
  EXPECT_FALSE(ParseShardMap("127.0.0.1").ok());       // no port
  EXPECT_FALSE(ParseShardMap(":7001").ok());           // no host
  EXPECT_FALSE(ParseShardMap("127.0.0.1:").ok());      // empty port
  EXPECT_FALSE(ParseShardMap("127.0.0.1:http").ok());  // non-numeric
  EXPECT_FALSE(ParseShardMap("127.0.0.1:70016").ok()); // > 65535
  EXPECT_FALSE(ParseShardMap("127.0.0.1:70x1").ok());  // trailing junk
  EXPECT_FALSE(ParseShardMap("127.0.0.1:7001,,127.0.0.1:7002").ok());
}

// --- MergeKnnNeighbors -----------------------------------------------------

WireNeighbor N(int64_t id, double d2) {
  WireNeighbor n;
  n.id = id;
  n.squared_distance = d2;
  return n;
}

TEST(MergeKnnTest, InterleavesSortedListsAndTruncatesToK) {
  std::vector<std::vector<WireNeighbor>> shards = {
      {N(10, 0.1), N(11, 0.4)},
      {N(20, 0.2), N(21, 0.3), N(22, 0.9)},
  };
  auto merged = MergeKnnNeighbors(shards, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 10);
  EXPECT_EQ(merged[1].id, 20);
  EXPECT_EQ(merged[2].id, 21);
  EXPECT_EQ(merged[3].id, 11);
}

TEST(MergeKnnTest, DuplicateDistancesBreakTiesById) {
  // Equal distances across shards must order by id — the engine's
  // Neighbor::operator< — or the merge would not be bit-identical to a
  // single server.
  std::vector<std::vector<WireNeighbor>> shards = {
      {N(7, 0.5), N(9, 0.5)},
      {N(3, 0.5), N(8, 0.5)},
  };
  auto merged = MergeKnnNeighbors(shards, 4);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id, 3);
  EXPECT_EQ(merged[1].id, 7);
  EXPECT_EQ(merged[2].id, 8);
  EXPECT_EQ(merged[3].id, 9);
}

TEST(MergeKnnTest, KLargerThanUnionReturnsEveryNeighbor) {
  std::vector<std::vector<WireNeighbor>> shards = {
      {N(1, 0.1)},
      {},  // an empty shard reply is fine
      {N(2, 0.2)},
  };
  auto merged = MergeKnnNeighbors(shards, 100);
  ASSERT_EQ(merged.size(), 2u);
  EXPECT_EQ(merged[0].id, 1);
  EXPECT_EQ(merged[1].id, 2);
  EXPECT_TRUE(MergeKnnNeighbors({}, 5).empty());
  EXPECT_TRUE(MergeKnnNeighbors({{}, {}}, 5).empty());
}

// --- MergeQueryReplies -----------------------------------------------------

protocol::QueryReply Reply(uint64_t rows, std::vector<int64_t> objids,
                           const std::string& path) {
  protocol::QueryReply r;
  r.row_count = rows;
  r.objids = std::move(objids);
  r.rows_scanned = rows;
  r.pages_fetched = 2;
  r.pages_read = 2;
  r.pages_skipped = 1;
  r.chosen_path = path;
  return r;
}

TEST(MergeQueryRepliesTest, SumsCountersAndConcatenatesInShardOrder) {
  std::vector<protocol::QueryReply> shards;
  shards.push_back(Reply(2, {5, 9}, "kd-tree"));
  shards.push_back(Reply(3, {1, 3, 7}, "kd-tree"));
  auto merged = MergeQueryReplies(std::move(shards), 0);
  EXPECT_EQ(merged.row_count, 5u);
  EXPECT_EQ(merged.rows_scanned, 5u);
  EXPECT_EQ(merged.pages_fetched, 4u);
  EXPECT_EQ(merged.pages_read, 4u);
  EXPECT_EQ(merged.pages_skipped, 2u);
  EXPECT_FALSE(merged.degraded);
  EXPECT_EQ(merged.chosen_path, "kd-tree");
  // Shard order, NOT sorted: shard order is global clustered order.
  EXPECT_EQ(merged.objids, (std::vector<int64_t>{5, 9, 1, 3, 7}));
}

TEST(MergeQueryRepliesTest, LimitTruncatesDegradedOrsPathsMix) {
  std::vector<protocol::QueryReply> shards;
  shards.push_back(Reply(2, {5, 9}, "kd-tree"));
  auto degraded = Reply(3, {1, 3, 7}, "full-scan");
  degraded.degraded = true;
  shards.push_back(std::move(degraded));
  auto merged = MergeQueryReplies(std::move(shards), 3);
  EXPECT_EQ(merged.row_count, 5u);  // row_count is the true total
  EXPECT_EQ(merged.objids, (std::vector<int64_t>{5, 9, 1}));
  EXPECT_TRUE(merged.degraded);
  EXPECT_EQ(merged.chosen_path, "mixed");
}

// --- end-to-end fixtures ---------------------------------------------------

/// Shard datasets are the expensive part, so the suite builds them once:
/// the full catalog plus its 2-way and 4-way kd-subtree shardings, all
/// over the same --n/--seed (which is what makes them one logical
/// catalog).
class CoordinatorTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRows = 20000;
  static constexpr uint64_t kSeed = 7;

  static void SetUpTestSuite() {
    single_ = BuildShard(0, 1);
    for (uint32_t i = 0; i < 2; ++i) shard2_[i] = BuildShard(i, 2);
    for (uint32_t i = 0; i < 4; ++i) shard4_[i] = BuildShard(i, 4);
  }

  static void TearDownTestSuite() {
    single_.reset();
    for (auto& d : shard2_) d.reset();
    for (auto& d : shard4_) d.reset();
  }

  static std::shared_ptr<ServedDataset> BuildShard(uint32_t index,
                                                   uint32_t count) {
    DatasetConfig config;
    config.num_rows = kRows;
    config.seed = kSeed;
    config.shard_index = index;
    config.shard_count = count;
    auto built = ServedDataset::Build(config);
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    return built.ok() ? std::make_shared<ServedDataset>(std::move(*built))
                      : nullptr;
  }

  /// In-process topology: one mdsd QueryServer per (shard, replica) plus
  /// an mdsc Coordinator over them. `shards[s]` lists the datasets of
  /// shard s's replicas (replicas of one shard share a dataset).
  struct Topology {
    std::vector<std::unique_ptr<QueryServer>> backends;
    std::unique_ptr<Coordinator> coordinator;

    Topology() = default;
    Topology(Topology&&) = default;
    Topology& operator=(Topology&&) = default;

    ~Topology() {
      if (coordinator) coordinator->Shutdown();
      for (auto& b : backends) b->Shutdown();
    }
  };

  static Topology Start(
      const std::vector<std::vector<std::shared_ptr<ServedDataset>>>& shards,
      CoordinatorConfig config = {}) {
    Topology t;
    ShardMap map;
    for (const auto& replicas : shards) {
      std::vector<BackendAddress> addrs;
      for (const std::shared_ptr<ServedDataset>& dataset : replicas) {
        auto server =
            std::make_unique<QueryServer>(dataset, ServerConfig{});
        EXPECT_TRUE(server->Start().ok());
        addrs.push_back({"127.0.0.1", server->port()});
        t.backends.push_back(std::move(server));
      }
      map.shards.push_back(std::move(addrs));
    }
    t.coordinator = std::make_unique<Coordinator>(map, config);
    Status started = t.coordinator->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return t;
  }

  static QueryClient MustConnect(uint16_t port) {
    auto client = QueryClient::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  /// The whole catalog's tight bounding box: it meets every shard's
  /// routing box.
  static Box CatalogBox() { return *single_->routing_box(); }

  static Box LocusBox(double half_width) {
    double mags[kNumBands];
    StellarLocus(0.5, 0.0, mags);
    std::vector<double> lo(mags, mags + kNumBands);
    std::vector<double> hi = lo;
    for (size_t j = 0; j < kNumBands; ++j) {
      lo[j] -= half_width;
      hi[j] += half_width;
    }
    return Box(lo, hi);
  }

  /// Asserts every query type answers identically (rows AND ordering)
  /// through the coordinator and through the single server.
  static void AssertParity(QueryClient& via_coord, QueryClient& via_single) {
    const Box box = LocusBox(0.8);

    auto count_c = via_coord.PointCount(box);
    auto count_s = via_single.PointCount(box);
    ASSERT_TRUE(count_c.ok()) << count_c.status().ToString();
    ASSERT_TRUE(count_s.ok());
    EXPECT_EQ(*count_c, *count_s);
    EXPECT_GT(*count_s, 0u);

    // Unhinted, each shard's planner chooses independently, and a shard
    // holding half the rows may pick a different access path (hence a
    // different emit order) than the single server does — so the
    // guaranteed unhinted parity is the row set. Exact ordering parity
    // is asserted below with the access path pinned on both sides.
    auto query_c = via_coord.BoxQuery(box);
    auto query_s = via_single.BoxQuery(box);
    ASSERT_TRUE(query_c.ok()) << query_c.status().ToString();
    ASSERT_TRUE(query_s.ok());
    EXPECT_EQ(query_c->row_count, query_s->row_count);
    std::vector<int64_t> set_c = query_c->objids;
    std::vector<int64_t> set_s = query_s->objids;
    std::sort(set_c.begin(), set_c.end());
    std::sort(set_s.begin(), set_s.end());
    EXPECT_EQ(set_c, set_s);

    // Same access path on every server => shard concatenation must
    // reproduce the single server's emit order exactly.
    for (const bool full_scan : {true, false}) {
      QueryOptions hint;
      hint.force_full_scan = full_scan;
      hint.force_index = !full_scan;
      auto hinted_c = via_coord.BoxQuery(box, 0, hint);
      auto hinted_s = via_single.BoxQuery(box, 0, hint);
      ASSERT_TRUE(hinted_c.ok()) << hinted_c.status().ToString();
      ASSERT_TRUE(hinted_s.ok());
      EXPECT_EQ(hinted_c->objids, hinted_s->objids)
          << (full_scan ? "full-scan" : "kd-tree");
      EXPECT_EQ(hinted_c->chosen_path, hinted_s->chosen_path);

      auto limited_c = via_coord.BoxQuery(box, 7, hint);
      auto limited_s = via_single.BoxQuery(box, 7, hint);
      ASSERT_TRUE(limited_c.ok());
      ASSERT_TRUE(limited_s.ok());
      EXPECT_EQ(limited_c->objids, limited_s->objids);
      EXPECT_EQ(limited_c->objids.size(), 7u);
      // TOP(limit) is a prefix of the unlimited reply.
      EXPECT_TRUE(std::equal(limited_c->objids.begin(),
                             limited_c->objids.end(),
                             hinted_c->objids.begin()));
    }

    double target[kNumBands];
    StellarLocus(0.62, 0.3, target);
    const std::vector<double> point(target, target + kNumBands);
    for (uint32_t k : {1u, 5u, 100u}) {
      auto knn_c = via_coord.Knn(point, k);
      auto knn_s = via_single.Knn(point, k);
      ASSERT_TRUE(knn_c.ok()) << knn_c.status().ToString();
      ASSERT_TRUE(knn_s.ok());
      ASSERT_EQ(knn_c->neighbors.size(), k);
      ASSERT_EQ(knn_s->neighbors.size(), k);
      for (uint32_t i = 0; i < k; ++i) {
        EXPECT_EQ(knn_c->neighbors[i].id, knn_s->neighbors[i].id) << i;
        EXPECT_EQ(knn_c->neighbors[i].squared_distance,
                  knn_s->neighbors[i].squared_distance)
            << i;
      }
    }

    const std::vector<Box> boxes = {LocusBox(0.2), LocusBox(0.5),
                                    LocusBox(0.8)};
    auto pipe_c = via_coord.PointCountPipeline(boxes);
    auto pipe_s = via_single.PointCountPipeline(boxes);
    ASSERT_EQ(pipe_c.size(), boxes.size());
    for (size_t i = 0; i < boxes.size(); ++i) {
      ASSERT_TRUE(pipe_c[i].ok()) << pipe_c[i].status().ToString();
      ASSERT_TRUE(pipe_s[i].ok());
      EXPECT_EQ(*pipe_c[i], *pipe_s[i]) << i;
    }
  }

  static std::shared_ptr<ServedDataset> single_;
  static std::shared_ptr<ServedDataset> shard2_[2];
  static std::shared_ptr<ServedDataset> shard4_[4];
};

std::shared_ptr<ServedDataset> CoordinatorTest::single_;
std::shared_ptr<ServedDataset> CoordinatorTest::shard2_[2];
std::shared_ptr<ServedDataset> CoordinatorTest::shard4_[4];

// --- parity ----------------------------------------------------------------

TEST_F(CoordinatorTest, ShardedDatasetsPartitionTheCatalog) {
  ASSERT_NE(single_, nullptr);
  uint64_t total2 = 0, total4 = 0;
  for (const auto& d : shard2_) {
    ASSERT_NE(d, nullptr);
    total2 += d->num_rows();
  }
  for (const auto& d : shard4_) {
    ASSERT_NE(d, nullptr);
    total4 += d->num_rows();
  }
  EXPECT_EQ(total2, single_->num_rows());
  EXPECT_EQ(total4, single_->num_rows());
  for (const auto& d : shard4_) EXPECT_LT(d->num_rows(), single_->num_rows());
}

TEST_F(CoordinatorTest, TwoShardParityWithSingleServer) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});

  QueryClient via_coord = MustConnect(t.coordinator->port());
  QueryClient via_single = MustConnect(single.port());

  auto health = via_coord.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->served_rows, kRows);
  EXPECT_EQ(health->dim, kNumBands);
  EXPECT_FALSE(health->draining);

  AssertParity(via_coord, via_single);
  single.Shutdown();
}

TEST_F(CoordinatorTest, FourShardParityWithSingleServer) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t =
      Start({{shard4_[0]}, {shard4_[1]}, {shard4_[2]}, {shard4_[3]}});

  QueryClient via_coord = MustConnect(t.coordinator->port());
  QueryClient via_single = MustConnect(single.port());
  AssertParity(via_coord, via_single);
  single.Shutdown();
}

TEST_F(CoordinatorTest, TableSampleDeterministicAndContained) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());

  const Box box = LocusBox(0.8);
  auto a = client.TableSample(box, 10.0, 50, /*seed=*/123);
  auto b = client.TableSample(box, 10.0, 50, /*seed=*/123);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  // Same seed through the same topology => the same sample.
  EXPECT_EQ(a->objids, b->objids);
  EXPECT_LE(a->objids.size(), 50u);
  EXPECT_FALSE(a->objids.empty());
  // TABLESAMPLE row_count counts the returned rows (post-TOP).
  EXPECT_EQ(a->row_count, a->objids.size());
  // Every sampled objid is a real catalog row inside the box.
  const PointSet& points = single_->points();
  for (int64_t id : a->objids) {
    ASSERT_GE(id, 0);
    ASSERT_LT(static_cast<uint64_t>(id), points.size());
    EXPECT_TRUE(box.Contains(points.point(static_cast<uint64_t>(id))));
  }
}

TEST_F(CoordinatorTest, PlannerHintsPassThroughToShards) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  // A box that meets both shards' routing boxes, so both shards scan.
  const Box box = CatalogBox();

  QueryOptions full_scan;
  full_scan.force_full_scan = true;
  auto scanned = client.BoxQuery(box, 0, full_scan);
  ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
  // Every shard obeyed the hint, so the merged path is not "mixed".
  EXPECT_EQ(scanned->chosen_path, "full-scan");
  EXPECT_EQ(scanned->rows_scanned, kRows);  // both shards scanned fully

  QueryOptions indexed;
  indexed.force_index = true;
  auto via_index = client.BoxQuery(box, 0, indexed);
  ASSERT_TRUE(via_index.ok());
  EXPECT_EQ(via_index->chosen_path, "kd-tree");
  // The two paths emit in different orders; the row set must agree.
  std::vector<int64_t> by_index = via_index->objids;
  std::vector<int64_t> by_scan = scanned->objids;
  std::sort(by_index.begin(), by_index.end());
  std::sort(by_scan.begin(), by_scan.end());
  EXPECT_EQ(by_index, by_scan);
}

// --- kNN bounds across shards ----------------------------------------------

TEST_F(CoordinatorTest, KnnLargerThanOneShardSmallerThanUnion) {
  QueryServer single(single_, ServerConfig{});
  ASSERT_TRUE(single.Start().ok());
  Topology t =
      Start({{shard4_[0]}, {shard4_[1]}, {shard4_[2]}, {shard4_[3]}});
  QueryClient via_coord = MustConnect(t.coordinator->port());
  QueryClient via_single = MustConnect(single.port());

  // k exceeds every single shard's population (kRows/4) but not the
  // union: each shard must be asked for min(k, its rows) and the merge
  // must still equal the single server bit for bit.
  const uint32_t k = static_cast<uint32_t>(kRows / 4 + 100);
  double target[kNumBands];
  StellarLocus(0.5, 0.0, target);
  const std::vector<double> point(target, target + kNumBands);

  auto knn_c = via_coord.Knn(point, k);
  auto knn_s = via_single.Knn(point, k);
  ASSERT_TRUE(knn_c.ok()) << knn_c.status().ToString();
  ASSERT_TRUE(knn_s.ok());
  ASSERT_EQ(knn_c->neighbors.size(), k);
  ASSERT_EQ(knn_c->neighbors.size(), knn_s->neighbors.size());
  for (uint32_t i = 0; i < k; ++i) {
    ASSERT_EQ(knn_c->neighbors[i].id, knn_s->neighbors[i].id) << i;
  }

  // k beyond the union is InvalidArgument, exactly like a single server
  // — and not retryable, so it must come back after one round, not after
  // walking replicas.
  auto too_big = via_coord.Knn(point, static_cast<uint32_t>(kRows + 1));
  ASSERT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kInvalidArgument);
  single.Shutdown();
}

TEST_F(CoordinatorTest, DimensionMismatchIsInvalidArgument) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  const Box flat({0.0, 0.0, 0.0}, {1.0, 1.0, 1.0});  // dim 3, catalog dim 5
  auto count = client.PointCount(flat);
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kInvalidArgument);
  // The connection survives a semantic error.
  auto ok = client.PointCount(LocusBox(0.5));
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

// --- failover, hedging, drain ----------------------------------------------

TEST_F(CoordinatorTest, BackendKillMidLoadFailsOverWithZeroClientErrors) {
  // One shard, two replicas over the same dataset. Replica 0 dies while
  // clients are querying; every client request must still succeed.
  CoordinatorConfig config;
  config.sub_deadline_ms = 2000;
  Topology t = Start({{single_, single_}}, config);

  QueryClient warmup = MustConnect(t.coordinator->port());
  auto first = warmup.PointCount(LocusBox(0.5));
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> successes{0};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> loaders;
  for (int i = 0; i < 3; ++i) {
    loaders.emplace_back([&t, &stop, &successes, &failures] {
      QueryClient client = MustConnect(t.coordinator->port());
      const Box box = LocusBox(0.5);
      while (!stop.load(std::memory_order_relaxed)) {
        auto count = client.PointCount(box);
        if (count.ok()) {
          successes.fetch_add(1, std::memory_order_relaxed);
        } else {
          failures.fetch_add(1, std::memory_order_relaxed);
          ADD_FAILURE() << "client saw: " << count.status().ToString();
          // The exchange failure closed the connection; reconnect.
          client = MustConnect(t.coordinator->port());
        }
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  t.backends[0]->Shutdown();  // kill replica 0 mid-load
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  stop.store(true);
  for (auto& th : loaders) th.join();

  EXPECT_GT(successes.load(), 0u);
  EXPECT_EQ(failures.load(), 0u);

  const auto stats = t.coordinator->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].failovers, 1u);
  EXPECT_GE(stats.shards[0].backend_errors, 1u);
  // Replica 0 accumulated consecutive failures and sits in backoff.
  EXPECT_LT(stats.shards[0].healthy_replicas, stats.shards[0].replicas);
}

TEST_F(CoordinatorTest, HedgeFiresAgainstStalledReplicaAndWins) {
  // Replica 0 is a black hole: it accepts connections and never replies.
  // With a fixed hedge delay well under the sub-deadline, the hedge to
  // replica 1 must answer the client promptly and be counted as won.
  auto stall = TcpListener::Listen(0);
  ASSERT_TRUE(stall.ok());
  const uint16_t stall_port = stall->port();
  std::atomic<bool> stall_stop{false};
  std::vector<Socket> swallowed;
  std::thread stall_thread([&stall, &stall_stop, &swallowed] {
    while (!stall_stop.load(std::memory_order_relaxed)) {
      auto sock = stall->Accept(IoDeadline::After(50));
      if (sock.ok()) swallowed.push_back(std::move(*sock));
    }
  });

  auto backend = std::make_unique<QueryServer>(single_, ServerConfig{});
  ASSERT_TRUE(backend->Start().ok());

  ShardMap map;
  map.shards.push_back(
      {{"127.0.0.1", stall_port}, {"127.0.0.1", backend->port()}});
  CoordinatorConfig config;
  config.hedge_delay_ms = 50;
  config.sub_deadline_ms = 300;
  Coordinator coordinator(map, config);
  // Start() probes replica 0, times out, and falls through to replica 1.
  ASSERT_TRUE(coordinator.Start().ok());

  QueryClient client = MustConnect(coordinator.port());
  auto count = client.PointCount(LocusBox(0.5));
  ASSERT_TRUE(count.ok()) << count.status().ToString();

  const auto stats = coordinator.Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].hedges_fired, 1u);
  EXPECT_GE(stats.shards[0].hedges_won, 1u);

  // Shutdown waits out the stalled attempt (sub-deadline + client slack).
  coordinator.Shutdown();
  backend->Shutdown();
  stall_stop.store(true);
  stall_thread.join();
}

TEST_F(CoordinatorTest, DrainShedsQueriesButAnswersHealth) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  // Complete one request so the accept thread has registered this
  // connection before the drain starts (a connection still in the accept
  // queue when drain begins is dropped, like any new arrival).
  ASSERT_TRUE(client.PointCount(LocusBox(0.5)).ok());

  t.coordinator->RequestDrain();
  EXPECT_TRUE(t.coordinator->draining());

  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->draining);

  auto count = client.PointCount(LocusBox(0.5));
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kUnavailable);

  const auto stats = t.coordinator->Stats();
  EXPECT_GE(stats.rejected_draining, 1u);
}

TEST_F(CoordinatorTest, StatsCarryPerShardRoutingCounters) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());

  // A box that meets both shards' routing boxes, so every count is sent
  // to both shards.
  const Box box = CatalogBox();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.PointCount(box).ok());
  }

  // Over the wire, through the same kStats request mdsd serves.
  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->requests_total, 4u);  // 3 counts + this stats request
  EXPECT_GE(stats->replies_ok, 4u);      // the stats reply counts itself
  EXPECT_EQ(stats->replies_error, 0u);
  EXPECT_GT(stats->bytes_in, 0u);
  EXPECT_GT(stats->bytes_out, 0u);
  ASSERT_EQ(stats->shards.size(), 2u);
  for (const auto& shard : stats->shards) {
    EXPECT_EQ(shard.replicas, 1u);
    EXPECT_EQ(shard.healthy_replicas, 1u);
    EXPECT_GE(shard.requests, 3u);
    EXPECT_EQ(shard.failovers, 0u);
    EXPECT_EQ(shard.backend_errors, 0u);
    EXPECT_GT(shard.p99_us, 0u);
  }
}

TEST_F(CoordinatorTest, IdleClientConnectionsCostNoThreads) {
  // mdsc runs on the shared reactor front end: its thread count is fixed
  // at Start, so parking idle clients on it must not spawn anything.
  auto count_threads = [] {
    size_t threads = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
      (void)task;
      ++threads;
    }
    return threads;
  };

  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());
  ASSERT_TRUE(client.PointCount(LocusBox(0.5)).ok());
  const size_t threads_before = count_threads();

  constexpr size_t kIdle = 64;
  std::vector<Socket> idle;
  for (size_t i = 0; i < kIdle; ++i) {
    auto sock = TcpConnect("127.0.0.1", t.coordinator->port(), 5000);
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    idle.push_back(std::move(*sock));
  }
  // Wait until every idle connection has been accepted (a request still
  // answers meanwhile), then count again.
  for (int i = 0; i < 500; ++i) {
    if (t.coordinator->Stats().connections_accepted >= kIdle + 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(t.coordinator->Stats().connections_accepted, kIdle + 1);
  ASSERT_TRUE(client.PointCount(LocusBox(0.5)).ok());
  EXPECT_EQ(count_threads(), threads_before)
      << kIdle << " idle client connections must not cost threads";
}

// --- shard pruning: counters, wave-one failure, reload ----------------------

/// The first row of `shard` (in clustered order) that lies outside
/// `other`'s routing box: a probe only `shard` can answer.
std::vector<double> RowOutside(const ServedDataset& shard, const Box& other) {
  for (uint64_t id : shard.tree().clustered_order()) {
    const float* p = shard.points().point(id);
    if (!other.Contains(p)) return std::vector<double>(p, p + shard.dim());
  }
  ADD_FAILURE() << "every row of the shard lies inside the other box";
  return {};
}

TEST_F(CoordinatorTest, StatsCountPrunedShardsAndSecondWaves) {
  Topology t = Start({{shard2_[0]}, {shard2_[1]}});
  QueryClient client = MustConnect(t.coordinator->port());

  // A point box on a shard-0 row outside shard 1's routing box: only
  // shard 0 is asked.
  const std::vector<double> row =
      RowOutside(*shard2_[0], *shard2_[1]->routing_box());
  ASSERT_FALSE(row.empty());
  for (int i = 0; i < 3; ++i) {
    auto count = client.PointCount(Box(row, row));
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_GE(*count, 1u);
  }
  // The probe's nearest row is itself (d2 0), and shard 1's box is
  // farther than that: no second wave.
  auto nearest = client.Knn(row, 1);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  ASSERT_EQ(nearest->neighbors.size(), 1u);
  EXPECT_EQ(nearest->neighbors[0].squared_distance, 0.0);
  // A skipped shard counts as answered.
  EXPECT_EQ(nearest->shards_answered, 2u);
  EXPECT_EQ(nearest->shards_mask, 0x3u);

  auto stats = client.ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->shards.size(), 2u);
  EXPECT_EQ(stats->shards[0].requests, 4u);
  EXPECT_EQ(stats->shards[0].pruned, 0u);
  EXPECT_EQ(stats->shards[1].requests, 0u);  // legs actually sent
  EXPECT_EQ(stats->shards[1].pruned, 4u);
  EXPECT_EQ(stats->knn_second_waves, 0u);

  // k beyond shard 0's rows: wave one returns fewer than k, so nothing
  // bounds the other shard and wave two asks it.
  const uint32_t k = static_cast<uint32_t>(shard2_[0]->num_rows() + 1);
  auto wide = client.Knn(row, k);
  ASSERT_TRUE(wide.ok()) << wide.status().ToString();
  EXPECT_EQ(wide->neighbors.size(), k);
  stats = client.ServerStats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->knn_second_waves, 1u);
  EXPECT_EQ(stats->shards[1].requests, 1u);
  EXPECT_EQ(stats->shards[1].pruned, 4u);
}

TEST_F(CoordinatorTest, WaveOneFailureUnderAllowPartialEqualsSurvivors) {
  Topology t =
      Start({{shard4_[0]}, {shard4_[1]}, {shard4_[2]}, {shard4_[3]}});
  // A probe on a shard-2 row: the wave-one shard is the nearest box
  // (lowest index on ties), computed here the way the coordinator does.
  const ServedDataset& owner = *shard4_[2];
  const float* p = owner.points().point(owner.tree().clustered_order()[0]);
  const std::vector<double> probe(p, p + owner.dim());
  size_t wave_one = 0;
  double best = std::numeric_limits<double>::infinity();
  for (size_t s = 0; s < 4; ++s) {
    const double d2 = shard4_[s]->routing_box()->MinSquaredDistance(
        probe.data());
    if (d2 < best) {
      best = d2;
      wave_one = s;
    }
  }
  t.backends[wave_one]->Shutdown();

  constexpr uint32_t kK = 25;
  QueryOptions partial;
  partial.allow_partial = true;
  QueryClient client = MustConnect(t.coordinator->port());
  auto knn = client.Knn(probe, kK, partial);
  ASSERT_TRUE(knn.ok()) << knn.status().ToString();
  EXPECT_TRUE(knn->partial);
  EXPECT_EQ(knn->shards_answered, 3u);
  EXPECT_EQ(knn->shards_total, 4u);
  EXPECT_EQ(knn->shards_mask, 0xFu & ~(1ull << wave_one));

  // Survivor oracle: every other shard asked directly, merged.
  std::vector<std::vector<WireNeighbor>> survivors;
  for (size_t s = 0; s < 4; ++s) {
    if (s == wave_one) continue;
    QueryClient direct = MustConnect(t.backends[s]->port());
    auto own = direct.Knn(probe, kK);
    ASSERT_TRUE(own.ok()) << own.status().ToString();
    survivors.push_back(own->neighbors);
  }
  const auto oracle = MergeKnnNeighbors(survivors, kK);
  ASSERT_EQ(knn->neighbors.size(), oracle.size());
  for (size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ(knn->neighbors[i].id, oracle[i].id) << i;
    EXPECT_EQ(knn->neighbors[i].squared_distance, oracle[i].squared_distance)
        << i;
  }
  EXPECT_EQ(t.coordinator->Stats().knn_second_waves, 1u);
}

TEST_F(CoordinatorTest, ReloadThroughCoordinatorReKeysRoutingBoxes) {
  // The backends' next generation: the same 4-way slicing of a catalog
  // drawn from another seed, so every shard's routing box moves.
  DatasetConfig next_config;
  next_config.num_rows = kRows;
  next_config.seed = kSeed + 1;
  std::shared_ptr<ServedDataset> next[4];
  for (uint32_t s = 0; s < 4; ++s) {
    next_config.shard_index = s;
    next_config.shard_count = 4;
    auto built = ServedDataset::Build(next_config);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    next[s] = std::make_shared<ServedDataset>(std::move(*built));
  }
  next_config.shard_index = 0;
  next_config.shard_count = 1;
  auto next_single = ServedDataset::Build(next_config);
  ASSERT_TRUE(next_single.ok());
  QueryServer single(std::make_shared<ServedDataset>(std::move(*next_single)),
                     ServerConfig{});
  ASSERT_TRUE(single.Start().ok());

  Topology t =
      Start({{shard4_[0]}, {shard4_[1]}, {shard4_[2]}, {shard4_[3]}});
  for (uint32_t s = 0; s < 4; ++s) {
    t.backends[s]->SetReloadHandler(
        [dataset = next[s]](const std::string&)
            -> Result<std::shared_ptr<ServedDataset>> { return dataset; });
  }

  // A new-generation row of shard s outside shard s's OLD box: with stale
  // boxes the coordinator would skip the shard that now holds it.
  std::vector<double> moved;
  for (size_t s = 4; s-- > 0 && moved.empty();) {
    const Box& old_box = *shard4_[s]->routing_box();
    for (uint64_t id : next[s]->tree().clustered_order()) {
      const float* p = next[s]->points().point(id);
      if (!old_box.Contains(p)) {
        moved.assign(p, p + next[s]->dim());
        break;
      }
    }
  }
  ASSERT_FALSE(moved.empty()) << "no routing box moved";

  QueryClient via_coord = MustConnect(t.coordinator->port());
  auto reloaded = via_coord.Reload("");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->served_rows, kRows);
  EXPECT_FALSE(reloaded->routing_box.known());  // a fleet has no one box

  QueryClient via_single = MustConnect(single.port());
  auto pruned_total = [&t] {
    uint64_t total = 0;
    for (const auto& shard : t.coordinator->Stats().shards) {
      total += shard.pruned;
    }
    return total;
  };
  const uint64_t pruned_before = pruned_total();
  auto count_c = via_coord.PointCount(Box(moved, moved));
  auto count_s = via_single.PointCount(Box(moved, moved));
  ASSERT_TRUE(count_c.ok()) << count_c.status().ToString();
  ASSERT_TRUE(count_s.ok());
  EXPECT_GE(*count_s, 1u);
  EXPECT_EQ(*count_c, *count_s);
  // The new boxes are installed, not merely forgotten: a one-row box
  // still skips shards after the reload.
  EXPECT_GT(pruned_total(), pruned_before);
  auto knn_c = via_coord.Knn(moved, 3);
  auto knn_s = via_single.Knn(moved, 3);
  ASSERT_TRUE(knn_c.ok()) << knn_c.status().ToString();
  ASSERT_TRUE(knn_s.ok());
  ASSERT_EQ(knn_c->neighbors.size(), knn_s->neighbors.size());
  for (size_t i = 0; i < knn_s->neighbors.size(); ++i) {
    EXPECT_EQ(knn_c->neighbors[i].id, knn_s->neighbors[i].id) << i;
  }
  AssertParity(via_coord, via_single);
  t = Topology{};  // backends stop before the datasets they serve
  single.Shutdown();
}

// --- pruned parity over an exact grid ----------------------------------------

/// A 32x32 integer grid in 2-D, read from CSV so every coordinate and
/// distance is exact, and served whole and as 2- and 4-way kd shards.
/// Rows are written with x descending, so at a tie across the x = 15|16
/// face the lower id lies in the higher-index shard: a wave two that
/// stopped at d2 < m (not <=) would return the wrong neighbour.
class PrunedScatterTest : public ::testing::Test {
 protected:
  static constexpr int kSide = 32;

  static void SetUpTestSuite() {
    dir_ = std::filesystem::temp_directory_path() /
           ("mds_pruned_scatter_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    const std::string csv = (dir_ / "grid.csv").string();
    {
      std::ofstream out(csv);
      out << "# x,y\n";
      for (int x = kSide - 1; x >= 0; --x) {
        for (int y = 0; y < kSide; ++y) out << x << "," << y << "\n";
      }
    }
    auto grid = ReadPointCsv(csv);
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();
    single_ = WriteAndLoad(*grid, 0, 1, "single");
    for (uint32_t i = 0; i < 2; ++i) {
      shard2_[i] = WriteAndLoad(*grid, i, 2, "two");
    }
    for (uint32_t i = 0; i < 4; ++i) {
      shard4_[i] = WriteAndLoad(*grid, i, 4, "four");
    }
  }

  static void TearDownTestSuite() {
    single_.reset();
    for (auto& d : shard2_) d.reset();
    for (auto& d : shard4_) d.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  static std::shared_ptr<ServedDataset> WriteAndLoad(
      const PointSet& points, uint32_t index, uint32_t count,
      const std::string& name) {
    DatasetFileOptions options;
    options.ingest = &points;
    options.dataset.shard_index = index;
    options.dataset.shard_count = count;
    const std::string path =
        (dir_ / (name + std::to_string(index) + ".mds")).string();
    const Status written = WriteDatasetFile(options, path);
    EXPECT_TRUE(written.ok()) << written.ToString();
    auto loaded = ServedDataset::Load(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? std::make_shared<ServedDataset>(std::move(*loaded))
                       : nullptr;
  }

  /// Boxes that straddle the shard faces, touch a face exactly, fall in
  /// the gap between two shards' boxes, or miss the catalog.
  static std::vector<Box> Boxes() {
    return {
        Box({14.5, 2.0}, {17.2, 9.0}),     // straddles x = 15|16
        Box({14.5, 14.5}, {16.5, 16.5}),   // meets all four quadrants
        Box({10.2, 3.0}, {16.0, 9.0}),     // hi.x touches the x = 16 face
        Box({15.0, 0.0}, {15.7, 31.0}),    // lo.x touches the x = 15 face
        Box({16.0, 16.0}, {16.0, 16.0}),   // one row, on two faces
        Box({0.0, 15.0}, {31.0, 15.0}),    // the y = 15 face only
        Box({15.2, 0.0}, {15.8, 31.0}),    // between the x faces: empty
        Box({40.0, 40.0}, {50.0, 50.0}),   // outside the catalog
        Box({-10.0, 0.0}, {-1.0, 31.0}),   // outside, beside shard faces
        Box({-1.0, -1.0}, {32.0, 32.0}),   // the whole catalog
    };
  }

  /// kNN probes on and near the shard faces, and outside the catalog.
  static std::vector<std::vector<double>> Probes() {
    return {{15.5, 7.0},   {15.5, 15.5}, {16.0, 15.5}, {15.49, 3.2},
            {15.51, 28.9}, {7.3, 15.5},  {16.0, 16.0}, {15.5, 40.0},
            {-3.0, -3.0},  {30.9, 0.1}};
  }

  /// Every box and probe answers identically through the coordinator and
  /// through the single server (hinted boxes in the same order too).
  static void ExpectParity(QueryClient& via_coord, QueryClient& via_single) {
    for (const Box& box : Boxes()) {
      SCOPED_TRACE("box lo=(" + std::to_string(box.lo(0)) + "," +
                   std::to_string(box.lo(1)) + ")");
      auto count_c = via_coord.PointCount(box);
      auto count_s = via_single.PointCount(box);
      ASSERT_TRUE(count_c.ok()) << count_c.status().ToString();
      ASSERT_TRUE(count_s.ok());
      EXPECT_EQ(*count_c, *count_s);
      for (const bool full_scan : {true, false}) {
        QueryOptions hint;
        hint.force_full_scan = full_scan;
        hint.force_index = !full_scan;
        for (uint64_t limit : {0u, 3u}) {
          auto rows_c = via_coord.BoxQuery(box, limit, hint);
          auto rows_s = via_single.BoxQuery(box, limit, hint);
          ASSERT_TRUE(rows_c.ok()) << rows_c.status().ToString();
          ASSERT_TRUE(rows_s.ok());
          EXPECT_EQ(rows_c->row_count, rows_s->row_count);
          EXPECT_EQ(rows_c->objids, rows_s->objids);
          EXPECT_EQ(rows_c->chosen_path, rows_s->chosen_path);
        }
      }
    }
    for (const std::vector<double>& probe : Probes()) {
      for (uint32_t k : {1u, 2u, 3u, 4u, 8u, 40u}) {
        SCOPED_TRACE("probe (" + std::to_string(probe[0]) + "," +
                     std::to_string(probe[1]) + ") k=" + std::to_string(k));
        auto knn_c = via_coord.Knn(probe, k);
        auto knn_s = via_single.Knn(probe, k);
        ASSERT_TRUE(knn_c.ok()) << knn_c.status().ToString();
        ASSERT_TRUE(knn_s.ok());
        ASSERT_EQ(knn_c->neighbors.size(), knn_s->neighbors.size());
        for (size_t i = 0; i < knn_s->neighbors.size(); ++i) {
          EXPECT_EQ(knn_c->neighbors[i].id, knn_s->neighbors[i].id) << i;
          EXPECT_EQ(knn_c->neighbors[i].squared_distance,
                    knn_s->neighbors[i].squared_distance)
              << i;
        }
      }
    }
  }

  static void RunParity(
      const std::vector<std::shared_ptr<ServedDataset>>& shards) {
    QueryServer single(single_, ServerConfig{});
    ASSERT_TRUE(single.Start().ok());
    std::vector<std::unique_ptr<QueryServer>> backends;
    ShardMap map;
    for (const std::shared_ptr<ServedDataset>& dataset : shards) {
      ASSERT_NE(dataset, nullptr);
      ASSERT_TRUE(dataset->routing_box().has_value());
      backends.push_back(
          std::make_unique<QueryServer>(dataset, ServerConfig{}));
      ASSERT_TRUE(backends.back()->Start().ok());
      map.shards.push_back({{"127.0.0.1", backends.back()->port()}});
    }
    Coordinator coordinator(map, CoordinatorConfig{});
    ASSERT_TRUE(coordinator.Start().ok());
    {
      auto c = QueryClient::Connect("127.0.0.1", coordinator.port());
      auto s = QueryClient::Connect("127.0.0.1", single.port());
      ASSERT_TRUE(c.ok() && s.ok());

      // The tie this grid exists for: (15,7) and (16,7) are both at d2
      // 0.25 from (15.5, 7), and the lower id is the x = 16 row.
      auto tie = s->Knn({15.5, 7.0}, 1);
      ASSERT_TRUE(tie.ok());
      ASSERT_EQ(tie->neighbors.size(), 1u);
      EXPECT_EQ(tie->neighbors[0].id, (kSide - 1 - 16) * kSide + 7);
      EXPECT_EQ(tie->neighbors[0].squared_distance, 0.25);

      ExpectParity(*c, *s);
    }
    const auto stats = coordinator.Stats();
    uint64_t pruned = 0;
    for (const auto& shard : stats.shards) pruned += shard.pruned;
    EXPECT_GT(pruned, 0u);
    EXPECT_GT(stats.knn_second_waves, 0u);
    coordinator.Shutdown();
    for (auto& b : backends) b->Shutdown();
    single.Shutdown();
  }

  static std::filesystem::path dir_;
  static std::shared_ptr<ServedDataset> single_;
  static std::shared_ptr<ServedDataset> shard2_[2];
  static std::shared_ptr<ServedDataset> shard4_[4];
};

std::filesystem::path PrunedScatterTest::dir_;
std::shared_ptr<ServedDataset> PrunedScatterTest::single_;
std::shared_ptr<ServedDataset> PrunedScatterTest::shard2_[2];
std::shared_ptr<ServedDataset> PrunedScatterTest::shard4_[4];

TEST_F(PrunedScatterTest, TwoShardParityOverFacesAndTies) {
  RunParity({shard2_[0], shard2_[1]});
}

TEST_F(PrunedScatterTest, FourShardParityOverFacesAndTies) {
  RunParity({shard4_[0], shard4_[1], shard4_[2], shard4_[3]});
}

TEST_F(PrunedScatterTest, ShardWithNanRowPublishesNoBoxAndIsAlwaysAsked) {
  // Six dimensions over the grid, with one NaN in the last. 1024 rows
  // make a 5-level tree that splits dims 0..4 only, so the NaN never
  // meets a split comparison. No box holds the NaN row, but its shard
  // publishes no routing box, so the coordinator asks it every time.
  PointSet points(6, 0);
  for (int x = 0; x < kSide; ++x) {
    for (int y = 0; y < kSide; ++y) {
      const float row[6] = {static_cast<float>(x), static_cast<float>(y),
                            static_cast<float>((x * y) % 5),
                            static_cast<float>((x + y) % 3), 0.5f * y, 1.0f};
      points.Append(row);
    }
  }
  points.mutable_point(3)[5] = std::numeric_limits<float>::quiet_NaN();
  const std::shared_ptr<ServedDataset> single =
      WriteAndLoad(points, 0, 1, "nan");
  const std::shared_ptr<ServedDataset> halves[2] = {
      WriteAndLoad(points, 0, 2, "nan_two"),
      WriteAndLoad(points, 1, 2, "nan_two")};
  ASSERT_TRUE(single && halves[0] && halves[1]);
  EXPECT_FALSE(single->routing_box().has_value());

  QueryServer single_server(single, ServerConfig{});
  ASSERT_TRUE(single_server.Start().ok());
  std::vector<std::unique_ptr<QueryServer>> backends;
  ShardMap map;
  size_t tainted = 2;
  for (size_t s = 0; s < 2; ++s) {
    backends.push_back(
        std::make_unique<QueryServer>(halves[s], ServerConfig{}));
    ASSERT_TRUE(backends.back()->Start().ok());
    map.shards.push_back({{"127.0.0.1", backends.back()->port()}});
    auto direct = QueryClient::Connect("127.0.0.1", backends.back()->port());
    ASSERT_TRUE(direct.ok());
    auto health = direct->Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    if (!health->routing_box.known()) tainted = s;
  }
  ASSERT_LT(tainted, 2u) << "the NaN row's shard published a box";
  EXPECT_TRUE(halves[1 - tainted]->routing_box().has_value());
  Coordinator coordinator(map, CoordinatorConfig{});
  ASSERT_TRUE(coordinator.Start().ok());

  auto via_coord = QueryClient::Connect("127.0.0.1", coordinator.port());
  auto via_single = QueryClient::Connect("127.0.0.1", single_server.port());
  ASSERT_TRUE(via_coord.ok() && via_single.ok());
  // Dims 0..4 cover the NaN row; dim 5 misses every finite row.
  const Box beside({-1, -1, -1, -1, -1, 100}, {40, 40, 10, 10, 40, 101});
  QueryOptions full_scan;
  full_scan.force_full_scan = true;
  for (const Box& box : {beside, Box({40, 40, 0, 0, 0, 0},
                                     {50, 50, 1, 1, 1, 1})}) {
    auto rows_c = via_coord->BoxQuery(box, 0, full_scan);
    auto rows_s = via_single->BoxQuery(box, 0, full_scan);
    ASSERT_TRUE(rows_c.ok()) << rows_c.status().ToString();
    ASSERT_TRUE(rows_s.ok());
    EXPECT_EQ(rows_c->row_count, rows_s->row_count);
    EXPECT_EQ(rows_c->objids, rows_s->objids);
  }
  auto nan_count = via_single->BoxQuery(beside, 0, full_scan);
  ASSERT_TRUE(nan_count.ok());
  EXPECT_TRUE(nan_count->objids.empty());

  const auto stats = coordinator.Stats();
  ASSERT_EQ(stats.shards.size(), 2u);
  EXPECT_EQ(stats.shards[tainted].pruned, 0u);
  EXPECT_EQ(stats.shards[tainted].requests, 2u);
  EXPECT_EQ(stats.shards[1 - tainted].pruned, 2u);
  coordinator.Shutdown();
  for (auto& b : backends) b->Shutdown();
  single_server.Shutdown();
}

// --- routing tails on the wire ----------------------------------------------

template <typename T, typename Encode>
std::vector<uint8_t> Encoded(const T& value, Encode encode) {
  std::vector<uint8_t> bytes;
  WireWriter w(&bytes);
  encode(value, &w);
  return bytes;
}

/// The routing tail is appended after every field an older peer knows, so
/// an older decoder (which stops after its last field and ignores what
/// follows) reads the new encoding exactly like the old one: the old
/// bytes must be a prefix of the new.
void ExpectPrefix(const std::vector<uint8_t>& prefix,
                  const std::vector<uint8_t>& bytes, size_t tail_bytes) {
  ASSERT_EQ(bytes.size(), prefix.size() + tail_bytes);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), bytes.begin()));
}

TEST(RoutingTailTest, HealthBoxTailReadsBothWays) {
  protocol::HealthReply old_reply;
  old_reply.served_rows = 42;
  old_reply.dim = 2;
  protocol::HealthReply reply = old_reply;
  reply.routing_box.lo = {-1.5, 0.0};
  reply.routing_box.hi = {2.0, 0.0};
  const auto old_bytes = Encoded(old_reply, protocol::EncodeHealthReply);
  const auto new_bytes = Encoded(reply, protocol::EncodeHealthReply);
  ExpectPrefix(old_bytes, new_bytes, 2 * (4 + 2 * 8));

  // Old encoder, new decoder: no tail, no box.
  protocol::HealthReply decoded;
  WireReader r_old(old_bytes.data(), old_bytes.size());
  ASSERT_TRUE(protocol::DecodeHealthReply(&r_old, &decoded).ok());
  EXPECT_EQ(decoded.served_rows, 42u);
  EXPECT_FALSE(decoded.routing_box.known());
  // New encoder, new decoder: the box round-trips.
  WireReader r_new(new_bytes.data(), new_bytes.size());
  ASSERT_TRUE(protocol::DecodeHealthReply(&r_new, &decoded).ok());
  EXPECT_TRUE(r_new.ExpectEnd().ok());
  EXPECT_EQ(decoded.routing_box.lo, reply.routing_box.lo);
  EXPECT_EQ(decoded.routing_box.hi, reply.routing_box.hi);

  // A tail that is inverted or not finite is refused, never routed by.
  for (const auto& bad :
       {std::pair<double, double>{3.0, 2.0},
        {0.0, std::numeric_limits<double>::infinity()}}) {
    protocol::HealthReply hostile = reply;
    hostile.routing_box.lo[0] = bad.first;
    hostile.routing_box.hi[0] = bad.second;
    const auto bytes = Encoded(hostile, protocol::EncodeHealthReply);
    WireReader r(bytes.data(), bytes.size());
    const Status status = protocol::DecodeHealthReply(&r, &decoded);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(decoded.routing_box.known());
  }
}

TEST(RoutingTailTest, ReloadBoxTailReadsBothWays) {
  protocol::ReloadReply old_reply;
  old_reply.old_epoch = 3;
  old_reply.new_epoch = 4;
  old_reply.served_rows = 9;
  protocol::ReloadReply reply = old_reply;
  reply.routing_box.lo = {0.0, 1.0, 2.0};
  reply.routing_box.hi = {0.5, 1.5, 2.5};
  const auto old_bytes = Encoded(old_reply, protocol::EncodeReloadReply);
  const auto new_bytes = Encoded(reply, protocol::EncodeReloadReply);
  ExpectPrefix(old_bytes, new_bytes, 2 * (4 + 3 * 8));

  protocol::ReloadReply decoded;
  WireReader r_old(old_bytes.data(), old_bytes.size());
  ASSERT_TRUE(protocol::DecodeReloadReply(&r_old, &decoded).ok());
  EXPECT_EQ(decoded.new_epoch, 4u);
  EXPECT_FALSE(decoded.routing_box.known());
  WireReader r_new(new_bytes.data(), new_bytes.size());
  ASSERT_TRUE(protocol::DecodeReloadReply(&r_new, &decoded).ok());
  EXPECT_TRUE(r_new.ExpectEnd().ok());
  EXPECT_EQ(decoded.routing_box.lo, reply.routing_box.lo);
  EXPECT_EQ(decoded.routing_box.hi, reply.routing_box.hi);
}

TEST(RoutingTailTest, StatsPrunedTailReadsBothWays) {
  protocol::ServerStatsSnapshot old_stats;
  old_stats.requests_total = 11;
  old_stats.reply_tail_copies = 5;
  old_stats.shards.resize(3);
  old_stats.shards[1].requests = 7;
  protocol::ServerStatsSnapshot stats = old_stats;
  stats.knn_second_waves = 2;
  stats.shards[0].pruned = 4;
  stats.shards[2].pruned = 6;
  const auto old_bytes = Encoded(old_stats, protocol::EncodeServerStats);
  const auto new_bytes = Encoded(stats, protocol::EncodeServerStats);
  ExpectPrefix(old_bytes, new_bytes, 8 * (1 + 3));

  protocol::ServerStatsSnapshot decoded;
  WireReader r_old(old_bytes.data(), old_bytes.size());
  ASSERT_TRUE(protocol::DecodeServerStats(&r_old, &decoded).ok());
  EXPECT_EQ(decoded.reply_tail_copies, 5u);
  EXPECT_EQ(decoded.knn_second_waves, 0u);
  for (const auto& shard : decoded.shards) EXPECT_EQ(shard.pruned, 0u);
  WireReader r_new(new_bytes.data(), new_bytes.size());
  ASSERT_TRUE(protocol::DecodeServerStats(&r_new, &decoded).ok());
  EXPECT_TRUE(r_new.ExpectEnd().ok());
  EXPECT_EQ(decoded.shards[1].requests, 7u);
  EXPECT_EQ(decoded.knn_second_waves, 2u);
  EXPECT_EQ(decoded.shards[0].pruned, 4u);
  EXPECT_EQ(decoded.shards[1].pruned, 0u);
  EXPECT_EQ(decoded.shards[2].pruned, 6u);
}

}  // namespace
}  // namespace mds
