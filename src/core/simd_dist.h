#ifndef MDS_CORE_SIMD_DIST_H_
#define MDS_CORE_SIMD_DIST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mds {

/// Runtime-dispatched SIMD kernels for the two per-row operations every
/// scan hot loop reduces to: squared Euclidean distance from one probe to
/// many clustered float rows (kd-tree leaf scans, brute-force kNN, the
/// Voronoi walk) and membership of many rows in an intersection of
/// halfspaces (the partial-range filter of every region query; a box is
/// the halfspace set of Polyhedron::FromBox).
///
/// Bit-exactness contract: every kernel produces results BIT-IDENTICAL to
/// the scalar reference (`SquaredDistance` in geom/point_set.h,
/// `Halfspace::Contains` in geom/polyhedron.h) on every input, including
/// NaN and infinity. The kernels that sum vectorize ACROSS rows — one
/// vector lane per row — so each lane performs exactly the scalar op
/// sequence (promote float to double, subtract or scale, multiply, add, in
/// dimension order) in IEEE double with no FMA contraction and no
/// reassociation. The interval test (halfspace sets in interval form) only
/// promotes and compares, which is exact in any lane order, so it puts one
/// row's axes in the lanes instead and keeps the bounds in registers.
/// Callers may therefore switch tiers freely without changing any
/// observable result: neighbor sets, tie ordering and wire bytes are
/// invariant.
///
enum class SimdTier {
  kScalar = 0,
  kSse2 = 1,  ///< 2 double lanes (baseline on x86-64)
  kAvx2 = 2,  ///< 4 double lanes
};

/// The tier kernels currently dispatch to (detection ∧ env cap ∧ test cap).
SimdTier ActiveSimdTier();

/// Lowers (never raises beyond hardware) the dispatch tier; pass the value
/// returned by ActiveSimdTier() at startup to restore. Not thread-safe
/// against concurrent kernel calls — test setup only.
void SetSimdTierForTest(SimdTier tier);

const char* SimdTierName(SimdTier tier);

/// d2[i] = squared distance from probe `p` (dim doubles) to the i-th of
/// `n` contiguous float rows at `rows + i*dim`.
void SquaredDistanceBatch(const double* p, const float* rows, size_t n,
                          size_t dim, double* d2);

/// d2[i] = squared distance from `p` to row ids[i] of the row-major float
/// table `points` (the clustered-order gather of a kd-tree leaf scan).
void SquaredDistanceGather(const double* p, const float* points,
                           const uint64_t* ids, size_t n, size_t dim,
                           double* d2);
/// Same with 32-bit ids (Voronoi seed-graph neighbors).
void SquaredDistanceGather(const double* p, const float* points,
                           const uint32_t* ids, size_t n, size_t dim,
                           double* d2);

/// mask[i] = 1 iff contiguous row i (dim floats at rows + i*dim) lies in
/// the box [lo, hi], with Polyhedron::FromBox(Box(lo, hi)).Contains
/// semantics: a NaN coordinate lies outside every box, and so does a
/// +-inf one when dim >= 2. Runs HalfspacesContainBatch on the box's
/// interval form.
void BoxContainsBatch(const double* lo, const double* hi, const float* rows,
                      size_t n, size_t dim, uint8_t* mask);

/// An intersection of halfspaces {x : normal . x <= offset}, flattened
/// once for HalfspacesContainBatch. Each halfspace keeps its dense normal
/// (the reference for rows with a non-finite coordinate) and the list of
/// its nonzero terms (what finite rows are evaluated over). Build it with
/// Add; the arrays are read-only afterwards.
///
/// Interval form: when every halfspace is `+-x_j <= offset` (exactly one
/// nonzero term, coefficient exactly +-1.0, offset not NaN) and every axis
/// carries at least one of them — what Polyhedron::FromBox builds — the
/// set also keeps per-axis bounds [lo[j], hi[j]]: the max of the lower
/// bounds (-offset of each -x_j term) and the min of the upper bounds,
/// +-inf on a side no halfspace bounds. A row is then inside iff
/// `lo[j] <= x_j && x_j <= hi[j]` on every axis, with the bounds clamped
/// to +-DBL_MAX when dim >= 2, and no row needs the dense sum:
///  - finite rows: the sparse sum is 0.0 + c*x_j, promoting and negating
///    are exact, so -x <= offset <=> x >= -offset; the clamp moves no
///    bound past a float;
///  - a NaN coordinate fails its own axis' ordered test, as the dense sum
///    (NaN) fails its halfspace;
///  - a +-inf coordinate fails its own axis against the clamped bounds;
///    the dense reference fails it too, since the halfspace of another
///    axis sums 0 * inf = NaN. In 1-d there is no other axis, and the raw
///    bounds give exactly Halfspace::Contains.
/// A set that leaves an axis without a halfspace (the empty set among
/// them) is not in interval form: there the dense sum may admit a
/// non-finite row.
struct HalfspaceSet {
  explicit HalfspaceSet(size_t dimension);

  /// Appends {x : normal . x <= offset}; `normal` has `dim` entries.
  void Add(const double* normal, double offset);

  size_t size() const { return offsets.size(); }

  size_t dim;
  std::vector<double> normals;      ///< size() x dim, row-major
  std::vector<double> offsets;      ///< one per halfspace
  std::vector<uint32_t> term_end;   ///< halfspace h owns nonzero terms
                                    ///< [term_end[h-1], term_end[h])
  std::vector<uint32_t> term_axis;  ///< axis of each nonzero term
  std::vector<double> term_coef;    ///< its normal component
  bool is_interval = false;         ///< see "Interval form" above
  std::vector<double> lo;           ///< per-axis bounds, valid iff
  std::vector<double> hi;           ///< is_interval (NaN while no
                                    ///< halfspace bounds the axis; empty
                                    ///< once one is not +-x_j <= offset)
};

/// mask[i] = 1 iff row i (set.dim floats at rows + i*stride bytes)
/// satisfies every halfspace of `set`, bit-identical to
/// Halfspace::Contains: per halfspace the row is promoted to double and
/// accumulated from 0.0 in axis order with a multiply then an add (no
/// FMA), and compared with `s <= offset` (NaN fails). A finite row is
/// evaluated over the nonzero terms only, which is exact: 0 * x is +-0 for
/// finite x, a sum started at +0.0 never becomes -0.0, and adding +-0 to
/// any other value leaves it unchanged. A row with any non-finite
/// coordinate takes the dense reference, where 0 * inf = NaN must show. A
/// set in interval form tests every row against its bounds alone.
void HalfspacesContainBatch(const HalfspaceSet& set, const void* rows,
                            size_t stride, size_t n, uint8_t* mask);

}  // namespace mds

#endif  // MDS_CORE_SIMD_DIST_H_
