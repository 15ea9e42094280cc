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
#include <string>
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

TEST(SimdDist, BoxContainsBatchMatchesFromBoxContains) {
  // A box means its Polyhedron::FromBox: NaN coordinates lie outside, and
  // +-inf ones too once there is a second axis. Rows mix in/out/boundary
  // values with NaN, +-inf and FLT_MAX; bounds include +-inf.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  uint64_t state = 5;
  uint64_t inside = 0;
  uint64_t outside = 0;
  for (size_t dim = 1; dim <= 18; ++dim) {
    for (int shape = 0; shape < 3; ++shape) {
      std::vector<double> lo(dim), hi(dim);
      for (size_t j = 0; j < dim; ++j) {
        const double a = static_cast<double>(SplitMix(&state) % 200) - 100.0;
        const double b = static_cast<double>(SplitMix(&state) % 200) - 100.0;
        lo[j] = std::min(a, b);
        hi[j] = std::max(a, b);
        // Shape 1 opens some sides to +-inf; shape 2 opens every side of
        // the first axis, the box that admits an infinite coordinate in
        // 1-d.
        if (shape == 1 && SplitMix(&state) % 3 == 0) lo[j] = -kInf;
        if (shape == 1 && SplitMix(&state) % 3 == 0) hi[j] = kInf;
        if (shape == 2 && j == 0) {
          lo[j] = -kInf;
          hi[j] = kInf;
        }
      }
      const Polyhedron poly = Polyhedron::FromBox(Box(lo, hi));
      for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{8},
                       size_t{63}, size_t{200}}) {
        std::vector<float> rows(n * dim);
        for (size_t i = 0; i < rows.size(); ++i) {
          const uint64_t r = SplitMix(&state);
          const size_t j = i % dim;
          if (r % 23 == 0) {
            rows[i] = std::numeric_limits<float>::quiet_NaN();
          } else if (r % 23 == 1) {
            rows[i] = (r & 1) ? std::numeric_limits<float>::infinity()
                              : -std::numeric_limits<float>::infinity();
          } else if (r % 23 == 2) {
            rows[i] = (r & 1) ? std::numeric_limits<float>::max()
                              : -std::numeric_limits<float>::max();
          } else if (r % 23 == 3 && std::isfinite(lo[j]) &&
                     std::isfinite(hi[j])) {
            rows[i] = static_cast<float>((r & 1) ? lo[j] : hi[j]);
          } else {
            rows[i] = static_cast<float>(r % 300) - 150.0f;
          }
        }
        std::vector<uint8_t> expected(n);
        for (size_t i = 0; i < n; ++i) {
          expected[i] = poly.Contains(rows.data() + i * dim) ? 1 : 0;
          (expected[i] ? inside : outside) += 1;
        }
        for (SimdTier tier : ReachableTiers()) {
          TierGuard guard(tier);
          std::vector<uint8_t> mask(n, 0xCC);
          BoxContainsBatch(lo.data(), hi.data(), rows.data(), n, dim,
                           mask.data());
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(mask[i], expected[i])
                << "tier=" << SimdTierName(tier) << " dim=" << dim
                << " shape=" << shape << " n=" << n << " i=" << i;
          }
        }
      }
    }
  }
  // Both outcomes occur: the boxes neither admit nor reject every row.
  EXPECT_GT(inside, 500u);
  EXPECT_GT(outside, 1000u);
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
            HalfspacesContainBatch(set, rows, dim * sizeof(float), n,
                                   mask.data());
            std::vector<uint8_t> batch(n, 0xCC);
            predicate.MatchBatch(rows, dim * sizeof(float), n, batch.data());
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

/// `n` rows of `dim` floats laid out `stride` bytes apart from byte
/// `start` of the returned buffer, the way a page holds them after each
/// row's objid. The padding is 0xFF bytes (a NaN pattern), so a kernel
/// that reads outside a row's coordinates changes its answer; the buffer
/// ends with the last row, so ASan catches a read past it.
std::vector<unsigned char> StridedCopy(const float* rows, size_t n,
                                       size_t dim, size_t stride,
                                       size_t start) {
  const size_t bytes = n == 0 ? start : start + (n - 1) * stride +
                                            dim * sizeof(float);
  std::vector<unsigned char> out(bytes, 0xFF);
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out.data() + start + i * stride, rows + i * dim,
                dim * sizeof(float));
  }
  return out;
}

/// Row strides for `dim`: packed page rows of 5-7-9 coordinates plus an
/// objid (20, 28, 36 bytes) where the row fits, the objid layout of any
/// width, and an odd stride that misaligns every other row.
std::vector<size_t> TestStrides(size_t dim) {
  std::vector<size_t> strides;
  for (size_t stride : {size_t{20}, size_t{28}, size_t{36},
                        dim * sizeof(float) + 8, dim * sizeof(float) + 5}) {
    if (stride >= dim * sizeof(float)) strides.push_back(stride);
  }
  return strides;
}

TEST(SimdDist, StridedKernelsMatchContiguous) {
  uint64_t state = 11;
  uint64_t inside = 0;
  uint64_t outside = 0;
  for (size_t dim = 1; dim <= 18; ++dim) {
    std::vector<Polyhedron> polys = TestPolyhedra(dim, &state);
    std::vector<HalfspaceSet> sets;
    for (const Polyhedron& poly : polys) {
      sets.emplace_back(dim);
      for (const Halfspace& h : poly.halfspaces()) {
        sets.back().Add(h.normal.data(), h.offset);
      }
    }
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{8}, size_t{63},
                     size_t{292}}) {
      const std::vector<float> rows = HalfspaceRows(n * dim, &state);
      for (SimdTier tier : ReachableTiers()) {
        TierGuard guard(tier);
        // The contiguous answers, as the kernels gave them before strides.
        std::vector<std::vector<uint8_t>> poly_expected;
        for (const HalfspaceSet& set : sets) {
          poly_expected.emplace_back(n, 0xCC);
          HalfspacesContainBatch(set, rows.data(), dim * sizeof(float), n,
                                 poly_expected.back().data());
          for (uint8_t in : poly_expected.back()) (in ? inside : outside) += 1;
        }
        for (size_t stride : TestStrides(dim)) {
          for (size_t start : {size_t{0}, size_t{1}, size_t{3}, size_t{8}}) {
            const std::vector<unsigned char> strided =
                StridedCopy(rows.data(), n, dim, stride, start);
            const unsigned char* base = strided.data() + start;
            for (size_t k = 0; k < sets.size(); ++k) {
              std::vector<uint8_t> poly_mask(n, 0xCC);
              HalfspacesContainBatch(sets[k], base, stride, n,
                                     poly_mask.data());
              ASSERT_EQ(poly_mask, poly_expected[k])
                  << "polyhedron " << k << " tier=" << SimdTierName(tier)
                  << " dim=" << dim << " n=" << n << " stride=" << stride
                  << " start=" << start;
            }
          }
        }
      }
    }
  }
  // Both outcomes occur: the polyhedra neither admit nor reject every row.
  EXPECT_GT(inside, 1000u);
  EXPECT_GT(outside, 1000u);
}

/// Runs `poly` through HalfspacesContainBatch on every reachable tier over
/// special-valued rows and compares each mask byte with
/// Polyhedron::Contains; returns the set so callers can check its form.
HalfspaceSet ExpectMatchesContains(const Polyhedron& poly,
                                   const std::vector<float>& rows,
                                   const std::string& what) {
  const size_t dim = poly.dim();
  HalfspaceSet set(dim);
  for (const Halfspace& h : poly.halfspaces()) {
    set.Add(h.normal.data(), h.offset);
  }
  const size_t n = rows.size() / dim;
  for (SimdTier tier : ReachableTiers()) {
    TierGuard guard(tier);
    std::vector<uint8_t> mask(n, 0xCC);
    HalfspacesContainBatch(set, rows.data(), dim * sizeof(float), n,
                           mask.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(mask[i], poly.Contains(rows.data() + i * dim) ? 1 : 0)
          << what << " tier=" << SimdTierName(tier) << " i=" << i;
    }
  }
  return set;
}

TEST(SimdDist, IntervalFormIsExactAndOnlyForUnitAxisHalfspaces) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t state = 13;
  for (size_t dim : {size_t{1}, size_t{2}, size_t{5}, size_t{7}, size_t{16},
                     size_t{18}}) {
    const std::vector<float> rows = HalfspaceRows(301 * dim, &state);
    auto axis = [&](size_t j, double coef) {
      std::vector<double> normal(dim, 0.0);
      normal[j] = coef;
      return normal;
    };
    std::vector<double> lo(dim), hi(dim);
    for (size_t j = 0; j < dim; ++j) {
      lo[j] = -20.0 - static_cast<double>(j);
      hi[j] = 30.0 + static_cast<double>(j);
    }

    // FromBox: the interval form, with the box's own bounds.
    const Polyhedron from_box = Polyhedron::FromBox(Box(lo, hi));
    HalfspaceSet set = ExpectMatchesContains(from_box, rows, "FromBox");
    EXPECT_TRUE(set.is_interval);
    EXPECT_EQ(set.lo, lo);
    EXPECT_EQ(set.hi, hi);

    // Infinite bounds, unbounded axes and two halfspaces on one axis: the
    // tighter bound of each side wins. Past 2-d the set leaves axes
    // without a halfspace, so it is not in interval form (the dense sum
    // admits some non-finite rows there).
    Polyhedron mixed(dim);
    mixed.AddHalfspace(axis(0, 1.0), kInf);
    mixed.AddHalfspace(axis(0, -1.0), 40.0);
    mixed.AddHalfspace(axis(0, -1.0), 12.5);
    mixed.AddHalfspace(axis(0, 1.0), 55.0);
    mixed.AddHalfspace(axis(0, 1.0), 70.0);
    if (dim > 1) mixed.AddHalfspace(axis(dim - 1, -1.0), kInf);
    set = ExpectMatchesContains(mixed, rows, "infinite bounds");
    EXPECT_EQ(set.is_interval, dim <= 2);
    EXPECT_EQ(set.lo[0], -12.5);
    EXPECT_EQ(set.hi[0], 55.0);
    if (dim > 1) {
      EXPECT_EQ(set.lo[dim - 1], -kInf);
      EXPECT_EQ(set.hi[dim - 1], kInf);
    }

    // A -inf upper bound empties the region for finite rows; it bounds
    // one axis only.
    Polyhedron empty(dim);
    empty.AddHalfspace(axis(dim - 1, 1.0), -kInf);
    EXPECT_EQ(ExpectMatchesContains(empty, rows, "-inf bound").is_interval,
              dim == 1);

    // +-0 offsets: x <= +0, -x <= -0, x <= -0, -x <= +0 on one axis each.
    Polyhedron zeros(dim);
    zeros.AddHalfspace(axis(0, 1.0), 0.0);
    zeros.AddHalfspace(axis(0, -1.0), -0.0);
    zeros.AddHalfspace(axis(dim - 1, 1.0), -0.0);
    zeros.AddHalfspace(axis(dim - 1, -1.0), 0.0);
    EXPECT_EQ(ExpectMatchesContains(zeros, rows, "+-0 offsets").is_interval,
              dim <= 2);

    // No halfspace at all: every row is inside, NaN and +-inf among them.
    EXPECT_FALSE(ExpectMatchesContains(Polyhedron(dim), rows, "no halfspaces")
                     .is_interval);

    // Only coefficients of exactly +-1 may take the interval form: 0.5 x
    // or 2 x round differently from x against a scaled offset.
    for (double coef : {0.5, 2.0, -0.5, -2.0}) {
      Polyhedron scaled = Polyhedron::FromBox(Box(lo, hi));
      scaled.AddHalfspace(axis(0, coef), 7.0);
      EXPECT_FALSE(
          ExpectMatchesContains(scaled, rows, "scaled coefficient")
              .is_interval)
          << coef;
    }

    // A NaN offset fails every row: never an interval bound.
    Polyhedron nan_offset = Polyhedron::FromBox(Box(lo, hi));
    nan_offset.AddHalfspace(axis(0, 1.0), nan);
    EXPECT_FALSE(
        ExpectMatchesContains(nan_offset, rows, "NaN offset").is_interval);

    // Two nonzero terms in one halfspace: general.
    if (dim > 1) {
      Polyhedron diagonal = Polyhedron::FromBox(Box(lo, hi));
      std::vector<double> normal = axis(0, 1.0);
      normal[1] = 1.0;
      diagonal.AddHalfspace(normal, 3.0);
      EXPECT_FALSE(
          ExpectMatchesContains(diagonal, rows, "diagonal").is_interval);
    }
  }
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
