// simd_dist: the vector kernels must be BIT-IDENTICAL to the scalar
// reference on every input — that is the whole contract that lets the
// scan loops switch tiers without changing neighbor sets, tie ordering
// or wire bytes. These tests sweep dims 1-8, unaligned row starts,
// NaN/infinity probes and coordinates, and exact-tie distances, and
// compare raw double bit patterns (not values, which would let -0.0 or
// differently-payloaded NaNs slip through) on every tier the host can
// reach. The membership kernels (box, halfspaces) are compared mask byte
// by mask byte against Box::Contains and Polyhedron::Contains. CI re-runs
// them with MDS_NO_SIMD=1 and MDS_SIMD_TIER=sse2.

#include "core/simd_dist.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "core/kdtree.h"
#include "core/knn.h"
#include "geom/box.h"
#include "geom/point_set.h"
#include "geom/polyhedron.h"
#include "geom/predicate.h"

namespace mds {
namespace {

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

/// Every tier reachable on this host, never raising past the startup
/// tier (which already folds in hardware support and the env caps).
std::vector<SimdTier> ReachableTiers() {
  const SimdTier top = ActiveSimdTier();
  std::vector<SimdTier> tiers = {SimdTier::kScalar};
  if (top >= SimdTier::kSse2) tiers.push_back(SimdTier::kSse2);
  if (top >= SimdTier::kAvx2) tiers.push_back(SimdTier::kAvx2);
  return tiers;
}

/// RAII: run a test body at a forced tier, restore the startup tier.
class TierGuard {
 public:
  explicit TierGuard(SimdTier tier) : restore_(ActiveSimdTier()) {
    SetSimdTierForTest(tier);
  }
  ~TierGuard() { SetSimdTierForTest(restore_); }

 private:
  SimdTier restore_;
};

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

float RandomCoord(uint64_t* state) {
  // Mostly ordinary magnitudes, with occasional specials so every batch
  // exercises the IEEE corner cases.
  const uint64_t r = SplitMix(state);
  switch (r % 37) {
    case 0:
      return std::numeric_limits<float>::quiet_NaN();
    case 1:
      return std::numeric_limits<float>::infinity();
    case 2:
      return -std::numeric_limits<float>::infinity();
    case 3:
      return 0.0f;
    case 4:
      return -0.0f;
    case 5:
      return std::numeric_limits<float>::denorm_min();
    case 6:
      return std::numeric_limits<float>::max();
    default:
      return (static_cast<float>(r % 100000) - 50000.0f) / 317.0f;
  }
}

/// Scalar reference, computed through the same geom/point_set.h routine
/// the row-at-a-time loops used before the kernels existed.
void ReferenceBatch(const double* p, const float* rows, size_t n, size_t dim,
                    double* d2) {
  for (size_t i = 0; i < n; ++i) {
    d2[i] = SquaredDistance(p, rows + i * dim, dim);
  }
}

TEST(SimdDist, TierPlumbing) {
  const SimdTier startup = ActiveSimdTier();
  EXPECT_NE(SimdTierName(startup), nullptr);
  {
    TierGuard guard(SimdTier::kScalar);
    EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
  }
  EXPECT_EQ(ActiveSimdTier(), startup);
  // SetSimdTierForTest never raises beyond the hardware/env tier.
  SetSimdTierForTest(SimdTier::kAvx2);
  EXPECT_LE(ActiveSimdTier(), startup);
  SetSimdTierForTest(startup);
}

TEST(SimdDist, BatchBitIdenticalAcrossDimsTiersAndLengths) {
  uint64_t state = 1;
  for (SimdTier tier : ReachableTiers()) {
    TierGuard guard(tier);
    for (size_t dim = 1; dim <= 8; ++dim) {
      for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{4},
                       size_t{5}, size_t{7}, size_t{8}, size_t{15},
                       size_t{64}, size_t{257}}) {
        std::vector<float> rows(n * dim);
        for (float& v : rows) v = RandomCoord(&state);
        std::vector<double> p(dim);
        for (double& v : p) v = static_cast<double>(RandomCoord(&state));

        std::vector<double> expected(n, -1.0), got(n, -2.0);
        ReferenceBatch(p.data(), rows.data(), n, dim, expected.data());
        SquaredDistanceBatch(p.data(), rows.data(), n, dim, got.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
              << "tier=" << SimdTierName(tier) << " dim=" << dim
              << " n=" << n << " i=" << i << " got=" << got[i]
              << " expected=" << expected[i];
        }
      }
    }
  }
}

TEST(SimdDist, BatchHandlesUnalignedRowStarts) {
  uint64_t state = 2;
  const size_t dim = 5;
  const size_t n = 133;
  // Over-allocate and start the row block at every float offset 0..7:
  // none of 1..7 is 32-byte aligned, so the kernels must not assume
  // aligned loads anywhere.
  std::vector<float> backing(8 + n * dim);
  for (float& v : backing) v = RandomCoord(&state);
  std::vector<double> p(dim);
  for (double& v : p) v = 0.25 * static_cast<double>(SplitMix(&state) % 1000);

  for (SimdTier tier : ReachableTiers()) {
    TierGuard guard(tier);
    for (size_t offset = 0; offset < 8; ++offset) {
      const float* rows = backing.data() + offset;
      std::vector<double> expected(n), got(n);
      ReferenceBatch(p.data(), rows, n, dim, expected.data());
      SquaredDistanceBatch(p.data(), rows, n, dim, got.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
            << "tier=" << SimdTierName(tier) << " offset=" << offset
            << " i=" << i;
      }
    }
  }
}

TEST(SimdDist, NaNAndInfinityProbesPropagateExactly) {
  const size_t dim = 5;
  const size_t n = 29;
  uint64_t state = 3;
  std::vector<float> rows(n * dim);
  for (float& v : rows) v = RandomCoord(&state);

  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), 0.0};
  for (double special : specials) {
    for (size_t axis = 0; axis < dim; ++axis) {
      std::vector<double> p(dim, 1.5);
      p[axis] = special;
      std::vector<double> expected(n), got(n);
      ReferenceBatch(p.data(), rows.data(), n, dim, expected.data());
      for (SimdTier tier : ReachableTiers()) {
        TierGuard guard(tier);
        SquaredDistanceBatch(p.data(), rows.data(), n, dim, got.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(got[i]), Bits(expected[i]))
              << "tier=" << SimdTierName(tier) << " axis=" << axis
              << " special=" << special << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdDist, GatherMatchesBatchOnShuffledIds) {
  uint64_t state = 4;
  const size_t dim = 5;
  const size_t table_rows = 400;
  std::vector<float> table(table_rows * dim);
  for (float& v : table) v = RandomCoord(&state);
  std::vector<double> p(dim);
  for (double& v : p) v = static_cast<double>(RandomCoord(&state));

  for (size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{5}, size_t{97}}) {
    std::vector<uint64_t> ids64(n);
    std::vector<uint32_t> ids32(n);
    for (size_t i = 0; i < n; ++i) {
      ids64[i] = SplitMix(&state) % table_rows;
      ids32[i] = static_cast<uint32_t>(ids64[i]);
    }
    std::vector<double> expected(n);
    for (size_t i = 0; i < n; ++i) {
      expected[i] = SquaredDistance(p.data(), table.data() + ids64[i] * dim,
                                    dim);
    }
    for (SimdTier tier : ReachableTiers()) {
      TierGuard guard(tier);
      std::vector<double> got64(n), got32(n);
      SquaredDistanceGather(p.data(), table.data(), ids64.data(), n, dim,
                            got64.data());
      SquaredDistanceGather(p.data(), table.data(), ids32.data(), n, dim,
                            got32.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(Bits(got64[i]), Bits(expected[i]))
            << "tier=" << SimdTierName(tier) << " n=" << n << " i=" << i;
        ASSERT_EQ(Bits(got32[i]), Bits(expected[i]))
            << "tier=" << SimdTierName(tier) << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(SimdDist, BoxContainsBatchMatchesBoxContains) {
  uint64_t state = 5;
  for (size_t dim = 1; dim <= 8; ++dim) {
    std::vector<double> lo(dim), hi(dim);
    for (size_t j = 0; j < dim; ++j) {
      double a = static_cast<double>(SplitMix(&state) % 200) - 100.0;
      double b = static_cast<double>(SplitMix(&state) % 200) - 100.0;
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    Box box(lo, hi);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{8}, size_t{63},
                     size_t{200}}) {
      std::vector<float> rows(n * dim);
      for (size_t i = 0; i < rows.size(); ++i) {
        // Dense coverage of in/out/boundary plus NaN coordinates (which
        // Box::Contains counts as contained: NaN compares false against
        // both bounds).
        const uint64_t r = SplitMix(&state);
        if (r % 23 == 0) {
          rows[i] = std::numeric_limits<float>::quiet_NaN();
        } else if (r % 23 == 1) {
          const size_t j = i % dim;
          rows[i] = static_cast<float>((r & 1) ? lo[j] : hi[j]);  // boundary
        } else {
          rows[i] = static_cast<float>(r % 300) - 150.0f;
        }
      }
      for (SimdTier tier : ReachableTiers()) {
        TierGuard guard(tier);
        std::vector<uint8_t> mask(n, 0xCC);
        BoxContainsBatch(lo.data(), hi.data(), rows.data(), n, dim,
                         mask.data());
        for (size_t i = 0; i < n; ++i) {
          const uint8_t expected =
              box.Contains(rows.data() + i * dim) ? 1 : 0;
          ASSERT_EQ(mask[i], expected)
              << "tier=" << SimdTierName(tier) << " dim=" << dim
              << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

/// A normal component: ordinary values mixed with +0, -0 and denormals.
/// Zero components are the terms the kernel skips for finite rows, so
/// they must be exactly as harmless as the dense sum says.
double RandomNormalComponent(uint64_t* state) {
  const uint64_t r = SplitMix(state);
  switch (r % 9) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return std::numeric_limits<double>::denorm_min();
    case 3:
      return -std::numeric_limits<double>::denorm_min();
    default:
      return (static_cast<double>(r % 2001) - 1000.0) / 1000.0;
  }
}

/// The polyhedra the scanner filters by: a box (FromBox: unit normals,
/// every other component +0), a ball approximation (dense normals) and a
/// random polyhedron whose normals carry +0, -0 and denormal components.
std::vector<Polyhedron> TestPolyhedra(size_t dim, uint64_t* state) {
  std::vector<double> lo(dim), hi(dim), center(dim);
  for (size_t j = 0; j < dim; ++j) {
    const double a = static_cast<double>(SplitMix(state) % 200) - 100.0;
    const double b = static_cast<double>(SplitMix(state) % 200) - 100.0;
    lo[j] = std::min(a, b);
    hi[j] = std::max(a, b);
    center[j] = static_cast<double>(SplitMix(state) % 100) - 50.0;
  }
  std::vector<Polyhedron> out;
  out.push_back(Polyhedron::FromBox(Box(lo, hi)));
  out.push_back(Polyhedron::BallApproximation(center, 120.0, 3 * dim + 4));
  Polyhedron random(dim);
  for (size_t f = 0; f < 2 * dim + 3; ++f) {
    std::vector<double> normal(dim);
    for (double& v : normal) v = RandomNormalComponent(state);
    random.AddHalfspace(std::move(normal),
                        static_cast<double>(SplitMix(state) % 100));
  }
  out.push_back(std::move(random));
  return out;
}

/// Rows for the halfspace kernel: RandomCoord's specials (NaN, +-inf,
/// +-0, denormals, FLT_MAX) among ordinary values, plus extra denormals
/// and integers, which land exactly on the integer faces of the FromBox
/// polyhedra (s == offset must count as inside).
std::vector<float> HalfspaceRows(size_t count, uint64_t* state) {
  std::vector<float> rows(count);
  for (float& v : rows) {
    const uint64_t r = SplitMix(state);
    if (r % 41 == 0) {
      v = -std::numeric_limits<float>::denorm_min();
    } else if (r % 41 < 8) {
      v = static_cast<float>(r % 201) - 100.0f;
    } else {
      v = RandomCoord(state);
    }
  }
  return rows;
}

TEST(SimdDist, HalfspacesContainBatchMatchesPolyhedronContains) {
  uint64_t state = 7;
  uint64_t inside = 0;
  uint64_t outside = 0;
  // Dims past 16 take the scalar tier inside the vector kernels.
  for (size_t dim = 1; dim <= 18; ++dim) {
    for (const Polyhedron& poly : TestPolyhedra(dim, &state)) {
      HalfspaceSet set(dim);
      for (const Halfspace& h : poly.halfspaces()) {
        set.Add(h.normal.data(), h.offset);
      }
      const PolyhedronPredicate predicate(&poly);
      for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{8},
                       size_t{63}, size_t{200}}) {
        // Row blocks start at float offsets 0..3: none but 0 is 16- or
        // 32-byte aligned.
        const std::vector<float> backing = HalfspaceRows(4 + n * dim, &state);
        for (size_t offset = 0; offset < 4; ++offset) {
          const float* rows = backing.data() + offset;
          std::vector<uint8_t> expected(n);
          for (size_t i = 0; i < n; ++i) {
            expected[i] = poly.Contains(rows + i * dim) ? 1 : 0;
            (expected[i] ? inside : outside) += 1;
          }
          for (SimdTier tier : ReachableTiers()) {
            TierGuard guard(tier);
            std::vector<uint8_t> mask(n, 0xCC);
            HalfspacesContainBatch(set, rows, n, mask.data());
            std::vector<uint8_t> batch(n, 0xCC);
            predicate.MatchBatch(rows, n, batch.data());
            for (size_t i = 0; i < n; ++i) {
              ASSERT_EQ(mask[i], expected[i])
                  << "tier=" << SimdTierName(tier) << " dim=" << dim
                  << " halfspaces=" << poly.num_halfspaces() << " n=" << n
                  << " offset=" << offset << " i=" << i;
              ASSERT_EQ(batch[i], predicate.Matches(rows + i * dim) ? 1 : 0)
                  << "tier=" << SimdTierName(tier) << " dim=" << dim
                  << " n=" << n << " offset=" << offset << " i=" << i;
            }
          }
        }
      }
    }
  }
  // The sweep exercises both outcomes, not a degenerate all-in/all-out.
  EXPECT_GT(inside, 1000u);
  EXPECT_GT(outside, 1000u);
}

TEST(SimdDist, KnnNeighborOrderIdenticalAcrossTiersWithTies) {
  // End-to-end tie regression: a point set full of exact duplicates makes
  // the k-th distance a many-way tie, so any kernel that changed insert
  // order or rounded differently would surface as a different id set or
  // sequence. The (d2, id) sequences must match the scalar tier exactly.
  const size_t dim = 5;
  const uint64_t n = 3000;
  uint64_t state = 6;
  PointSet points(dim, 0);
  points.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    float row[8];
    // Snap coordinates to a coarse lattice: lots of duplicate rows.
    for (size_t j = 0; j < dim; ++j) {
      row[j] = static_cast<float>(SplitMix(&state) % 7);
    }
    points.Append(row);
  }
  auto tree = KdTreeIndex::Build(&points, KdTreeConfig{});
  ASSERT_TRUE(tree.ok());
  KdKnnSearcher searcher(&*tree);

  const double probes[][8] = {{3.1, 2.9, 3.0, 3.2, 2.8},
                              {0.0, 0.0, 0.0, 0.0, 0.0},
                              {6.0, 6.0, 6.0, 6.0, 6.0}};
  for (const double* p : probes) {
    // BestFirst and BruteForce each get their own scalar reference: with
    // heavy ties at the k-th distance the two algorithms may legitimately
    // keep different tied subsets (they insert in different orders), but
    // each must be invariant across tiers.
    std::vector<Neighbor> ref_best, ref_brute;
    {
      TierGuard guard(SimdTier::kScalar);
      ref_best = searcher.BestFirst(p, 25);
      ref_brute = searcher.BruteForce(p, 25);
    }
    ASSERT_EQ(ref_best.size(), 25u);
    for (SimdTier tier : ReachableTiers()) {
      TierGuard guard(tier);
      std::vector<Neighbor> got = searcher.BestFirst(p, 25);
      ASSERT_EQ(got.size(), ref_best.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, ref_best[i].id)
            << "tier=" << SimdTierName(tier) << " i=" << i;
        EXPECT_EQ(Bits(got[i].squared_distance),
                  Bits(ref_best[i].squared_distance))
            << "tier=" << SimdTierName(tier) << " i=" << i;
      }
      std::vector<Neighbor> brute = searcher.BruteForce(p, 25);
      ASSERT_EQ(brute.size(), ref_brute.size());
      for (size_t i = 0; i < brute.size(); ++i) {
        EXPECT_EQ(brute[i].id, ref_brute[i].id)
            << "tier=" << SimdTierName(tier) << " i=" << i;
        EXPECT_EQ(Bits(brute[i].squared_distance),
                  Bits(ref_brute[i].squared_distance))
            << "tier=" << SimdTierName(tier) << " i=" << i;
      }
    }
  }
}

}  // namespace
}  // namespace mds
