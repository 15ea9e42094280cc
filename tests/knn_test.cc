#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/knn.h"

namespace mds {
namespace {

PointSet MakeData(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  PointSet ps(d, 0);
  ps.Reserve(n);
  std::vector<double> p(d);
  for (size_t i = 0; i < n; ++i) {
    double mode = rng.NextDouble();
    for (size_t j = 0; j < d; ++j) {
      if (mode < 0.4) {
        p[j] = 0.4 * rng.NextGaussian();  // dense core
      } else if (mode < 0.8) {
        p[j] = 4.0 + 0.8 * rng.NextGaussian();  // second cluster
      } else {
        p[j] = rng.NextUniform(-8, 8);  // background + outliers
      }
    }
    ps.Append(p.data());
  }
  return ps;
}

struct KnnCase {
  size_t dim;
  size_t n;
  size_t k;
};

class KnnPropertyTest : public ::testing::TestWithParam<KnnCase> {};

TEST_P(KnnPropertyTest, AllEnginesAgree) {
  const KnnCase& tc = GetParam();
  PointSet ps = MakeData(tc.n, tc.dim, 100 + tc.n + tc.dim);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> q(tc.dim);
    // Mix of query locations: near data, in voids, outside the bounding
    // box entirely.
    double mode = rng.NextDouble();
    for (size_t j = 0; j < tc.dim; ++j) {
      if (mode < 0.4) {
        q[j] = 0.4 * rng.NextGaussian();
      } else if (mode < 0.7) {
        q[j] = rng.NextUniform(-8, 8);
      } else {
        q[j] = rng.NextUniform(-20, 20);
      }
    }
    auto brute = searcher.BruteForce(q.data(), tc.k);
    auto best_first = searcher.BestFirst(q.data(), tc.k);
    auto boundary = searcher.BoundaryGrow(q.data(), tc.k);
    ASSERT_EQ(brute.size(), tc.k);
    ASSERT_EQ(best_first.size(), tc.k);
    ASSERT_EQ(boundary.size(), tc.k);
    for (size_t i = 0; i < tc.k; ++i) {
      // Distances must agree exactly (same arithmetic); ids may differ
      // only under exact ties.
      EXPECT_DOUBLE_EQ(best_first[i].squared_distance,
                       brute[i].squared_distance)
          << "trial " << trial << " i " << i;
      EXPECT_DOUBLE_EQ(boundary[i].squared_distance,
                       brute[i].squared_distance)
          << "trial " << trial << " i " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KnnPropertyTest,
    ::testing::Values(KnnCase{1, 1000, 5}, KnnCase{2, 3000, 1},
                      KnnCase{2, 3000, 10}, KnnCase{3, 5000, 10},
                      KnnCase{3, 5000, 100}, KnnCase{5, 4000, 10},
                      KnnCase{5, 4000, 50}, KnnCase{7, 2000, 10}));

TEST(KnnTest, KLargerThanDataset) {
  PointSet ps = MakeData(50, 3, 5);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);
  double q[3] = {0, 0, 0};
  auto result = searcher.BoundaryGrow(q, 100);
  EXPECT_EQ(result.size(), 50u);
  // Sorted ascending.
  for (size_t i = 1; i < result.size(); ++i) {
    EXPECT_GE(result[i].squared_distance, result[i - 1].squared_distance);
  }
}

TEST(KnnTest, QueryOnDataPointFindsItself) {
  PointSet ps = MakeData(2000, 4, 9);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);
  for (uint64_t i = 0; i < ps.size(); i += 111) {
    std::vector<double> q(4);
    for (size_t j = 0; j < 4; ++j) q[j] = ps.coord(i, j);
    auto result = searcher.BoundaryGrow(q.data(), 1);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_DOUBLE_EQ(result[0].squared_distance, 0.0);
  }
}

TEST(KnnTest, BoundaryGrowExaminesFewLeaves) {
  // The point of §3.3: for local queries only a small neighborhood of
  // leaves is scanned.
  PointSet ps = MakeData(50000, 3, 13);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);
  Rng rng(17);
  uint64_t total_leaves = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    double q[3] = {0.4 * rng.NextGaussian(), 0.4 * rng.NextGaussian(),
                   0.4 * rng.NextGaussian()};
    KnnStats stats;
    searcher.BoundaryGrow(q, 10, &stats);
    total_leaves += stats.leaves_examined;
    EXPECT_GT(stats.boundary_points_checked, 0u);
  }
  double avg = static_cast<double>(total_leaves) / trials;
  EXPECT_LT(avg, tree->num_leaves() / 8.0);
}

TEST(KnnTest, StatsAccounting) {
  PointSet ps = MakeData(5000, 2, 21);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);
  double q[2] = {0.1, -0.2};
  KnnStats brute_stats, bf_stats, bg_stats;
  searcher.BruteForce(q, 10, &brute_stats);
  searcher.BestFirst(q, 10, &bf_stats);
  searcher.BoundaryGrow(q, 10, &bg_stats);
  EXPECT_EQ(brute_stats.points_examined, ps.size());
  EXPECT_LT(bf_stats.points_examined, ps.size());
  EXPECT_LT(bg_stats.points_examined, ps.size());
  EXPECT_GE(bg_stats.leaves_examined, 1u);
  EXPECT_GE(bg_stats.rounds + 1, bg_stats.leaves_examined);
}

TEST(KnnTest, DegenerateDuplicateData) {
  PointSet ps(2, 0);
  float p[2] = {1, 1};
  for (int i = 0; i < 500; ++i) ps.Append(p);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);
  double q[2] = {1, 1};
  auto result = searcher.BoundaryGrow(q, 5);
  ASSERT_EQ(result.size(), 5u);
  for (const auto& n : result) {
    EXPECT_DOUBLE_EQ(n.squared_distance, 0.0);
  }
}

TEST(KnnTest, TiesAtTheKthDistanceKeepTheLowestIds) {
  // An integer grid with ids running against x, so probes halfway between
  // columns see exact ties whose lowest id is NOT the row a search meets
  // first. Every engine must return the first k in (distance, id) order.
  PointSet ps(2, 0);
  for (int x = 31; x >= 0; --x) {
    for (int y = 0; y < 32; ++y) {
      const float p[2] = {static_cast<float>(x), static_cast<float>(y)};
      ps.Append(p);
    }
  }
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);
  const double probes[][2] = {{15.5, 7.0},  {15.5, 15.5}, {16.25, 7.0},
                              {7.5, 15.5},  {3.5, 3.5},   {-2.0, 15.5},
                              {16.0, 16.0}, {0.5, 31.5}};
  for (const auto& q : probes) {
    for (size_t k : {1u, 2u, 3u, 5u, 8u, 13u}) {
      auto brute = searcher.BruteForce(q, k);
      auto best_first = searcher.BestFirst(q, k);
      auto boundary = searcher.BoundaryGrow(q, k);
      ASSERT_EQ(brute.size(), k);
      ASSERT_EQ(best_first.size(), k);
      ASSERT_EQ(boundary.size(), k);
      for (size_t i = 0; i < k; ++i) {
        EXPECT_EQ(best_first[i].id, brute[i].id)
            << "(" << q[0] << "," << q[1] << ") k " << k << " i " << i;
        EXPECT_EQ(boundary[i].id, brute[i].id)
            << "(" << q[0] << "," << q[1] << ") k " << k << " i " << i;
      }
    }
  }
  // (16,7) and (15,7) are both 0.25 from (15.5, 7); (16,7) has the lower id.
  const double tie[2] = {15.5, 7.0};
  EXPECT_EQ(searcher.BoundaryGrow(tie, 1)[0].id, 15u * 32 + 7);
}

}  // namespace
}  // namespace mds
