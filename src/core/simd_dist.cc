#include "core/simd_dist.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "geom/point_set.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#define MDS_SIMD_HAVE_X86 1
#endif

namespace mds {

namespace {

// --- scalar reference paths --------------------------------------------------

void DistBatchScalar(const double* p, const float* rows, size_t n, size_t dim,
                     double* d2) {
  for (size_t i = 0; i < n; ++i) {
    d2[i] = SquaredDistance(p, rows + i * dim, dim);
  }
}

template <typename Id>
void DistGatherScalar(const double* p, const float* points, const Id* ids,
                      size_t n, size_t dim, double* d2) {
  for (size_t i = 0; i < n; ++i) {
    d2[i] = SquaredDistance(p, points + static_cast<size_t>(ids[i]) * dim,
                            dim);
  }
}

/// Coordinate j of a strided row, promoted to double. Rows may sit at any
/// alignment (a page row after its objid), so the float is copied out.
inline double Coord(const unsigned char* row, size_t j) {
  float v;
  std::memcpy(&v, row + j * sizeof(float), sizeof(v));
  return v;
}

/// Halfspace::Contains over every halfspace, term for term: the reference,
/// and the path of every row with a non-finite coordinate.
bool HalfspacesDense(const HalfspaceSet& set, const unsigned char* r) {
  for (size_t h = 0; h < set.size(); ++h) {
    const double* normal = set.normals.data() + h * set.dim;
    double s = 0.0;
    for (size_t j = 0; j < set.dim; ++j) s += normal[j] * Coord(r, j);
    if (!(s <= set.offsets[h])) return false;
  }
  return true;
}

/// The same sums over the nonzero terms only; exact for finite rows.
bool HalfspacesSparse(const HalfspaceSet& set, const unsigned char* r) {
  uint32_t t = 0;
  for (size_t h = 0; h < set.size(); ++h) {
    double s = 0.0;
    for (; t < set.term_end[h]; ++t) {
      s += set.term_coef[t] * Coord(r, set.term_axis[t]);
    }
    if (!(s <= set.offsets[h])) return false;
  }
  return true;
}

/// Bound j of an interval set as the kernels test it: clamped to
/// +-DBL_MAX when dim >= 2, so a +-inf coordinate fails its own axis (see
/// HalfspaceSet). No float lies beyond DBL_MAX, so finite rows are
/// unaffected.
inline double KernelLo(const HalfspaceSet& set, size_t j) {
  return set.dim < 2 ? set.lo[j]
                     : std::max(set.lo[j], -std::numeric_limits<double>::max());
}
inline double KernelHi(const HalfspaceSet& set, size_t j) {
  return set.dim < 2 ? set.hi[j]
                     : std::min(set.hi[j], std::numeric_limits<double>::max());
}

/// The interval form's test; exact for every row of an interval set.
bool InsideIntervals(const HalfspaceSet& set, const unsigned char* r) {
  for (size_t j = 0; j < set.dim; ++j) {
    const double v = Coord(r, j);
    if (!(KernelLo(set, j) <= v && v <= KernelHi(set, j))) return false;
  }
  return true;
}

bool RowFinite(const unsigned char* r, size_t dim) {
  for (size_t j = 0; j < dim; ++j) {
    if (!std::isfinite(Coord(r, j))) return false;
  }
  return true;
}

void HalfspacesScalar(const HalfspaceSet& set, const unsigned char* rows,
                      size_t stride, size_t n, uint8_t* mask) {
  for (size_t i = 0; i < n; ++i) {
    const unsigned char* r = rows + i * stride;
    bool in;
    if (set.is_interval) {
      in = InsideIntervals(set, r);
    } else if (!RowFinite(r, set.dim)) {
      in = HalfspacesDense(set, r);
    } else {
      in = HalfspacesSparse(set, r);
    }
    mask[i] = in ? 1 : 0;
  }
}

#if defined(MDS_SIMD_HAVE_X86)

/// The vector membership tiers hold a row's bounds in registers, or stage
/// a block's promoted coordinates on the stack, one column per axis;
/// wider rows take the scalar tier.
constexpr size_t kMaxStagedDim = 16;

// --- SSE2 tier (baseline on x86-64): 2 double lanes --------------------------
//
// Lane-per-row layout for the sums: lane l accumulates the full scalar op
// sequence for row i+l. Per dimension the two rows' floats are promoted
// and combined with sub/mul/add in double — the identical IEEE
// operations, in the identical order, as the scalar loop, so every lane
// is bit-exact. No horizontal reduction ever happens. The interval test
// only compares, so its lanes hold one row's axes (IntervalRowsSse2).

inline __m128d Promote2(const float* r0, const float* r1, size_t j) {
  return _mm_setr_pd(static_cast<double>(r0[j]), static_cast<double>(r1[j]));
}

void Dist2Rows(const double* p, const float* r0, const float* r1, size_t dim,
               double* out) {
  __m128d acc = _mm_setzero_pd();
  for (size_t j = 0; j < dim; ++j) {
    const __m128d pv = _mm_set1_pd(p[j]);
    const __m128d diff = _mm_sub_pd(pv, Promote2(r0, r1, j));
    acc = _mm_add_pd(acc, _mm_mul_pd(diff, diff));
  }
  _mm_storeu_pd(out, acc);
}

void DistBatchSse2(const double* p, const float* rows, size_t n, size_t dim,
                   double* d2) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    Dist2Rows(p, rows + i * dim, rows + (i + 1) * dim, dim, d2 + i);
  }
  for (; i < n; ++i) d2[i] = SquaredDistance(p, rows + i * dim, dim);
}

template <typename Id>
void DistGatherSse2(const double* p, const float* points, const Id* ids,
                    size_t n, size_t dim, double* d2) {
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    Dist2Rows(p, points + static_cast<size_t>(ids[i]) * dim,
              points + static_cast<size_t>(ids[i + 1]) * dim, dim, d2 + i);
  }
  for (; i < n; ++i) {
    d2[i] = SquaredDistance(p, points + static_cast<size_t>(ids[i]) * dim,
                            dim);
  }
}

inline __m128d Promote2(const unsigned char* r0, const unsigned char* r1,
                        size_t j) {
  return _mm_setr_pd(Coord(r0, j), Coord(r1, j));
}

/// Axes at..at+1 of a row, promoted. The 8 bytes are copied out: rows
/// may sit at any alignment.
inline __m128d LoadAxes2(const unsigned char* r, size_t at) {
  int64_t bits;
  std::memcpy(&bits, r + at * sizeof(float), sizeof(bits));
  return _mm_cvtps_pd(_mm_castsi128_ps(_mm_cvtsi64_si128(bits)));
}

/// Row-wise interval test of an interval set, one row per step: the row is
/// promoted two axes at a time and compared (ordered, so NaN fails) with
/// those axes' kernel bounds, held in registers. An odd tail re-tests the
/// last two axes; a 1-axis row leaves its second lane at 0 against
/// (-inf, inf). Rows need dim <= kMaxStagedDim.
void IntervalRowsSse2(const HalfspaceSet& set, const unsigned char* rows,
                      size_t stride, size_t n, uint8_t* mask) {
  const size_t dim = set.dim;
  const size_t chunks = (dim + 1) / 2;
  const double inf = std::numeric_limits<double>::infinity();
  size_t at[kMaxStagedDim / 2];
  __m128d lo2[kMaxStagedDim / 2];
  __m128d hi2[kMaxStagedDim / 2];
  for (size_t c = 0; c < chunks; ++c) {
    at[c] = dim < 2 ? 0 : std::min(2 * c, dim - 2);
    lo2[c] = _mm_setr_pd(KernelLo(set, at[c]),
                         dim < 2 ? -inf : KernelLo(set, at[c] + 1));
    hi2[c] = _mm_setr_pd(KernelHi(set, at[c]),
                         dim < 2 ? inf : KernelHi(set, at[c] + 1));
  }
  for (size_t i = 0; i < n; ++i) {
    const unsigned char* r = rows + i * stride;
    __m128d in = _mm_castsi128_pd(_mm_set1_epi64x(-1));
    for (size_t c = 0; c < chunks; ++c) {
      const __m128d v =
          dim < 2 ? _mm_setr_pd(Coord(r, 0), 0.0) : LoadAxes2(r, at[c]);
      // Ordered: false for NaN, as the scalar lo <= v && v <= hi.
      in = _mm_and_pd(in, _mm_and_pd(_mm_cmple_pd(lo2[c], v),
                                     _mm_cmple_pd(v, hi2[c])));
    }
    mask[i] = _mm_movemask_pd(in) == 0x3 ? 1 : 0;
  }
}

void HalfspacesSse2(const HalfspaceSet& set, const unsigned char* rows,
                    size_t stride, size_t n, uint8_t* mask) {
  if (set.dim > kMaxStagedDim) {
    HalfspacesScalar(set, rows, stride, n, mask);
    return;
  }
  if (set.is_interval) {
    IntervalRowsSse2(set, rows, stride, n, mask);
    return;
  }
  // Lane l of cols[2j..2j+1] is axis j of row i+l, promoted once per
  // block and shared by every halfspace's terms.
  const size_t dim = set.dim;
  alignas(16) double cols[2 * kMaxStagedDim];
  const size_t count = set.size();
  const uint32_t* term_end = set.term_end.data();
  const uint32_t* axis = set.term_axis.data();
  const double* coef = set.term_coef.data();
  const double* offsets = set.offsets.data();
  const __m128d zero = _mm_setzero_pd();
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const unsigned char* r0 = rows + i * stride;
    const unsigned char* r1 = r0 + stride;
    __m128d finite = _mm_castsi128_pd(_mm_set1_epi64x(-1));
    for (size_t j = 0; j < dim; ++j) {
      const __m128d v = Promote2(r0, r1, j);
      // v - v is 0 for finite v and NaN for +-inf or NaN.
      finite = _mm_and_pd(finite, _mm_cmpeq_pd(_mm_sub_pd(v, v), zero));
      _mm_store_pd(cols + 2 * j, v);
    }
    __m128d in = _mm_castsi128_pd(_mm_set1_epi64x(-1));
    uint32_t t = 0;
    for (size_t h = 0; h < count; ++h) {
      __m128d s = zero;
      for (const uint32_t end = term_end[h]; t < end; ++t) {
        const __m128d x = _mm_load_pd(cols + 2 * axis[t]);
        s = _mm_add_pd(s, _mm_mul_pd(_mm_set1_pd(coef[t]), x));
      }
      // Ordered <=: a NaN sum fails, like the scalar `s <= offset`.
      in = _mm_and_pd(in, _mm_cmple_pd(s, _mm_set1_pd(offsets[h])));
      if (_mm_movemask_pd(in) == 0) break;  // both rows already out
    }
    const int bits = _mm_movemask_pd(in);
    const int finite_bits = _mm_movemask_pd(finite);
    for (int l = 0; l < 2; ++l) {
      mask[i + l] = (finite_bits >> l) & 1
                        ? static_cast<uint8_t>((bits >> l) & 1)
                        : (HalfspacesDense(set, r0 + l * stride) ? 1 : 0);
    }
  }
  if (i < n) {
    HalfspacesScalar(set, rows + i * stride, stride, n - i, mask + i);
  }
}

// --- AVX2 tier: 4 double lanes, reached only after a cpuid check -------------

__attribute__((target("avx2"))) inline __m256d Promote4(const float* r0,
                                                        const float* r1,
                                                        const float* r2,
                                                        const float* r3,
                                                        size_t j) {
  return _mm256_setr_pd(static_cast<double>(r0[j]), static_cast<double>(r1[j]),
                        static_cast<double>(r2[j]),
                        static_cast<double>(r3[j]));
}

__attribute__((target("avx2"))) void Dist4Rows(const double* p,
                                               const float* r0,
                                               const float* r1,
                                               const float* r2,
                                               const float* r3, size_t dim,
                                               double* out) {
  __m256d acc = _mm256_setzero_pd();
  size_t j = 0;
  // Four dimensions per step: load 4 floats of each row, transpose to
  // per-dimension vectors, promote with cvtps_pd (exact, like the scalar
  // float->double promotion) and accumulate in dimension order — the
  // per-lane op sequence is still exactly the scalar one. The transpose
  // replaces 16 scalar loads + inserts per step with 4 loads + shuffles.
  for (; j + 4 <= dim; j += 4) {
    __m128 a0 = _mm_loadu_ps(r0 + j);
    __m128 a1 = _mm_loadu_ps(r1 + j);
    __m128 a2 = _mm_loadu_ps(r2 + j);
    __m128 a3 = _mm_loadu_ps(r3 + j);
    _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
    const __m128 cols[4] = {a0, a1, a2, a3};
    for (int c = 0; c < 4; ++c) {
      const __m256d pv = _mm256_set1_pd(p[j + static_cast<size_t>(c)]);
      const __m256d diff = _mm256_sub_pd(pv, _mm256_cvtps_pd(cols[c]));
      // Explicit mul-then-add (not fmadd): FMA's unrounded intermediate
      // would diverge from the scalar reference in the last ulp.
      acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
    }
  }
  for (; j < dim; ++j) {
    const __m256d pv = _mm256_set1_pd(p[j]);
    const __m256d diff = _mm256_sub_pd(pv, Promote4(r0, r1, r2, r3, j));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
  }
  _mm256_storeu_pd(out, acc);
}

__attribute__((target("avx2"))) void DistBatchAvx2(const double* p,
                                                   const float* rows,
                                                   size_t n, size_t dim,
                                                   double* d2) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float* base = rows + i * dim;
    Dist4Rows(p, base, base + dim, base + 2 * dim, base + 3 * dim, dim,
              d2 + i);
  }
  for (; i < n; ++i) d2[i] = SquaredDistance(p, rows + i * dim, dim);
}

template <typename Id>
__attribute__((target("avx2"))) void DistGatherAvx2(const double* p,
                                                    const float* points,
                                                    const Id* ids, size_t n,
                                                    size_t dim, double* d2) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (i + 12 <= n) {
      // Rows land at id-driven (effectively random) addresses; prefetch
      // two iterations ahead so the loads overlap the arithmetic.
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 8]) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 9]) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 10]) * dim),
                   _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(
                       points + static_cast<size_t>(ids[i + 11]) * dim),
                   _MM_HINT_T0);
    }
    Dist4Rows(p, points + static_cast<size_t>(ids[i]) * dim,
              points + static_cast<size_t>(ids[i + 1]) * dim,
              points + static_cast<size_t>(ids[i + 2]) * dim,
              points + static_cast<size_t>(ids[i + 3]) * dim, dim, d2 + i);
  }
  for (; i < n; ++i) {
    d2[i] = SquaredDistance(p, points + static_cast<size_t>(ids[i]) * dim,
                            dim);
  }
}

__attribute__((target("avx2"))) inline __m256d Promote4(
    const unsigned char* r0, const unsigned char* r1, const unsigned char* r2,
    const unsigned char* r3, size_t j) {
  return _mm256_setr_pd(Coord(r0, j), Coord(r1, j), Coord(r2, j),
                        Coord(r3, j));
}

/// Row-wise interval test of an interval set, one row per step: the row is
/// promoted four axes at a time and compared (ordered, so NaN fails) with
/// those axes' kernel bounds, held in registers (kChunks groups of four,
/// unrolled). A ragged tail re-tests the last four axes; rows of fewer
/// than four axes load only theirs, and the other lanes read 0 against
/// (-inf, inf).
template <size_t kChunks>
__attribute__((target("avx2"))) void IntervalChunksAvx2(
    const HalfspaceSet& set, const unsigned char* rows, size_t stride,
    size_t n, uint8_t* mask) {
  const size_t dim = set.dim;
  size_t at[kChunks];
  __m256d lo4[kChunks];
  __m256d hi4[kChunks];
  alignas(32) double lanes_lo[4];
  alignas(32) double lanes_hi[4];
  for (size_t c = 0; c < kChunks; ++c) {
    at[c] = dim < 4 ? 0 : std::min(4 * c, dim - 4);
    for (size_t l = 0; l < 4; ++l) {
      const bool real = at[c] + l < dim;
      lanes_lo[l] = real ? KernelLo(set, at[c] + l)
                         : -std::numeric_limits<double>::infinity();
      lanes_hi[l] = real ? KernelHi(set, at[c] + l)
                         : std::numeric_limits<double>::infinity();
    }
    lo4[c] = _mm256_load_pd(lanes_lo);
    hi4[c] = _mm256_load_pd(lanes_hi);
  }
  // Rows of fewer than four axes: a masked load never touches the bytes
  // past the row.
  const bool short_row = dim < 4;
  const __m128i lanes =
      _mm_setr_epi32(-1, dim > 1 ? -1 : 0, dim > 2 ? -1 : 0, 0);
  for (size_t i = 0; i < n; ++i) {
    const unsigned char* r = rows + i * stride;
    __m256d in = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    for (size_t c = 0; c < kChunks; ++c) {
      const float* axes = reinterpret_cast<const float*>(r) + at[c];
      const __m256d v = _mm256_cvtps_pd(
          short_row ? _mm_maskload_ps(axes, lanes) : _mm_loadu_ps(axes));
      // LE_OQ both ways, as the scalar lo <= v && v <= hi.
      in = _mm256_and_pd(
          in, _mm256_and_pd(_mm256_cmp_pd(lo4[c], v, _CMP_LE_OQ),
                            _mm256_cmp_pd(v, hi4[c], _CMP_LE_OQ)));
    }
    mask[i] = _mm256_movemask_pd(in) == 0xF ? 1 : 0;
  }
}

/// IntervalChunksAvx2 for rows of 1..kMaxStagedDim axes.
__attribute__((target("avx2"))) void IntervalRowsAvx2(
    const HalfspaceSet& set, const unsigned char* rows, size_t stride,
    size_t n, uint8_t* mask) {
  switch ((set.dim + 3) / 4) {
    case 1:
      IntervalChunksAvx2<1>(set, rows, stride, n, mask);
      return;
    case 2:
      IntervalChunksAvx2<2>(set, rows, stride, n, mask);
      return;
    case 3:
      IntervalChunksAvx2<3>(set, rows, stride, n, mask);
      return;
    default:
      IntervalChunksAvx2<4>(set, rows, stride, n, mask);
  }
}

__attribute__((target("avx2"))) void HalfspacesAvx2(const HalfspaceSet& set,
                                                    const unsigned char* rows,
                                                    size_t stride, size_t n,
                                                    uint8_t* mask) {
  if (set.dim > kMaxStagedDim) {
    HalfspacesScalar(set, rows, stride, n, mask);
    return;
  }
  if (set.is_interval) {
    IntervalRowsAvx2(set, rows, stride, n, mask);
    return;
  }
  const size_t dim = set.dim;
  alignas(32) double cols[4 * kMaxStagedDim];
  const size_t count = set.size();
  const uint32_t* term_end = set.term_end.data();
  const uint32_t* axis = set.term_axis.data();
  const double* coef = set.term_coef.data();
  const double* offsets = set.offsets.data();
  const __m256d zero = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const unsigned char* r0 = rows + i * stride;
    const unsigned char* r1 = r0 + stride;
    const unsigned char* r2 = r1 + stride;
    const unsigned char* r3 = r2 + stride;
    // Stage the block column by column (4x4 float transposes, as in
    // Dist4Rows), flagging lanes whose row holds a non-finite value.
    __m256d finite = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      const size_t at = j * sizeof(float);
      __m128 a0 = _mm_loadu_ps(reinterpret_cast<const float*>(r0 + at));
      __m128 a1 = _mm_loadu_ps(reinterpret_cast<const float*>(r1 + at));
      __m128 a2 = _mm_loadu_ps(reinterpret_cast<const float*>(r2 + at));
      __m128 a3 = _mm_loadu_ps(reinterpret_cast<const float*>(r3 + at));
      _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
      const __m128 c4[4] = {a0, a1, a2, a3};
      for (size_t c = 0; c < 4; ++c) {
        const __m256d v = _mm256_cvtps_pd(c4[c]);
        finite = _mm256_and_pd(
            finite, _mm256_cmp_pd(_mm256_sub_pd(v, v), zero, _CMP_EQ_OQ));
        _mm256_store_pd(cols + 4 * (j + c), v);
      }
    }
    for (; j < dim; ++j) {
      const __m256d v = Promote4(r0, r1, r2, r3, j);
      finite = _mm256_and_pd(
          finite, _mm256_cmp_pd(_mm256_sub_pd(v, v), zero, _CMP_EQ_OQ));
      _mm256_store_pd(cols + 4 * j, v);
    }
    __m256d in = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    uint32_t t = 0;
    for (size_t h = 0; h < count; ++h) {
      __m256d s = zero;
      for (const uint32_t end = term_end[h]; t < end; ++t) {
        const __m256d x = _mm256_load_pd(cols + 4 * axis[t]);
        // Explicit mul-then-add, never fmadd (see Dist4Rows).
        s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(coef[t]), x));
      }
      // LE_OQ: a NaN sum fails, like the scalar `s <= offset`.
      in = _mm256_and_pd(
          in, _mm256_cmp_pd(s, _mm256_set1_pd(offsets[h]), _CMP_LE_OQ));
      if (_mm256_movemask_pd(in) == 0) break;  // all four rows already out
    }
    const int bits = _mm256_movemask_pd(in);
    const int finite_bits = _mm256_movemask_pd(finite);
    for (int l = 0; l < 4; ++l) {
      mask[i + l] = (finite_bits >> l) & 1
                        ? static_cast<uint8_t>((bits >> l) & 1)
                        : (HalfspacesDense(set, r0 + l * stride) ? 1 : 0);
    }
  }
  if (i < n) {
    HalfspacesScalar(set, rows + i * stride, stride, n - i, mask + i);
  }
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#endif  // MDS_SIMD_HAVE_X86

SimdTier HardwareTier() {
#if defined(MDS_SIMD_HAVE_X86)
  return CpuHasAvx2() ? SimdTier::kAvx2 : SimdTier::kSse2;
#else
  return SimdTier::kScalar;
#endif
}

/// Detection ∧ environment cap, computed once.
SimdTier DetectTier() {
  SimdTier tier = HardwareTier();
  const char* no_simd = std::getenv("MDS_NO_SIMD");
  if (no_simd != nullptr && no_simd[0] == '1') return SimdTier::kScalar;
  const char* cap = std::getenv("MDS_SIMD_TIER");
  if (cap != nullptr) {
    const std::string s(cap);
    if (s == "scalar") {
      tier = SimdTier::kScalar;
    } else if (s == "sse2" && tier > SimdTier::kSse2) {
      tier = SimdTier::kSse2;
    }
    // "avx2" (or anything else) never raises past hardware.
  }
  return tier;
}

std::atomic<int>& TierCell() {
  static std::atomic<int> tier{static_cast<int>(DetectTier())};
  return tier;
}

}  // namespace

SimdTier ActiveSimdTier() {
  return static_cast<SimdTier>(TierCell().load(std::memory_order_relaxed));
}

void SetSimdTierForTest(SimdTier tier) {
  // Clamp to the startup tier (hardware ∧ env caps), not raw hardware:
  // MDS_NO_SIMD / MDS_SIMD_TIER promise the process never runs above the
  // capped tier, and a test helper must not be able to break that.
  static const SimdTier kCeiling = DetectTier();
  if (tier > kCeiling) tier = kCeiling;
  TierCell().store(static_cast<int>(tier), std::memory_order_relaxed);
}

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar: return "scalar";
    case SimdTier::kSse2: return "sse2";
    case SimdTier::kAvx2: return "avx2";
  }
  return "unknown";
}

void SquaredDistanceBatch(const double* p, const float* rows, size_t n,
                          size_t dim, double* d2) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      DistBatchAvx2(p, rows, n, dim, d2);
      return;
    case SimdTier::kSse2:
      DistBatchSse2(p, rows, n, dim, d2);
      return;
#endif
    default:
      DistBatchScalar(p, rows, n, dim, d2);
  }
}

void SquaredDistanceGather(const double* p, const float* points,
                           const uint64_t* ids, size_t n, size_t dim,
                           double* d2) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      DistGatherAvx2(p, points, ids, n, dim, d2);
      return;
    case SimdTier::kSse2:
      DistGatherSse2(p, points, ids, n, dim, d2);
      return;
#endif
    default:
      DistGatherScalar(p, points, ids, n, dim, d2);
  }
}

void SquaredDistanceGather(const double* p, const float* points,
                           const uint32_t* ids, size_t n, size_t dim,
                           double* d2) {
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      DistGatherAvx2(p, points, ids, n, dim, d2);
      return;
    case SimdTier::kSse2:
      DistGatherSse2(p, points, ids, n, dim, d2);
      return;
#endif
    default:
      DistGatherScalar(p, points, ids, n, dim, d2);
  }
}

void BoxContainsBatch(const double* lo, const double* hi, const float* rows,
                      size_t n, size_t dim, uint8_t* mask) {
  HalfspaceSet set(dim);
  std::vector<double> normal(dim, 0.0);
  for (size_t j = 0; j < dim; ++j) {
    normal[j] = 1.0;
    set.Add(normal.data(), hi[j]);
    normal[j] = -1.0;
    set.Add(normal.data(), -lo[j]);
    normal[j] = 0.0;
  }
  HalfspacesContainBatch(set, rows, dim * sizeof(float), n, mask);
}

HalfspaceSet::HalfspaceSet(size_t dimension)
    : dim(dimension),
      lo(dimension, std::numeric_limits<double>::quiet_NaN()),
      hi(dimension, std::numeric_limits<double>::quiet_NaN()) {}

void HalfspaceSet::Add(const double* normal, double offset) {
  normals.insert(normals.end(), normal, normal + dim);
  offsets.push_back(offset);
  const size_t first = term_axis.size();
  for (size_t j = 0; j < dim; ++j) {
    if (normal[j] == 0.0) continue;  // +0 and -0 alike; NaN is kept
    term_axis.push_back(static_cast<uint32_t>(j));
    term_coef.push_back(normal[j]);
  }
  term_end.push_back(static_cast<uint32_t>(term_axis.size()));
  if (lo.empty()) return;  // an earlier halfspace was general
  // Interval form: one nonzero term with coefficient exactly +-1.0 and a
  // non-NaN offset bounds one axis (see the struct comment).
  const bool unit_term = term_axis.size() == first + 1 &&
                         (term_coef.back() == 1.0 || term_coef.back() == -1.0);
  if (!unit_term || std::isnan(offset)) {
    is_interval = false;
    lo.clear();
    hi.clear();
    return;
  }
  const uint32_t axis = term_axis.back();
  if (std::isnan(lo[axis])) {  // the axis' first halfspace
    lo[axis] = -std::numeric_limits<double>::infinity();
    hi[axis] = std::numeric_limits<double>::infinity();
  }
  if (term_coef.back() == 1.0) {
    hi[axis] = std::min(hi[axis], offset);
  } else {
    lo[axis] = std::max(lo[axis], -offset);
  }
  is_interval = std::none_of(lo.begin(), lo.end(),
                             [](double v) { return std::isnan(v); });
}

void HalfspacesContainBatch(const HalfspaceSet& set, const void* rows,
                            size_t stride, size_t n, uint8_t* mask) {
  const auto* bytes = static_cast<const unsigned char*>(rows);
  switch (ActiveSimdTier()) {
#if defined(MDS_SIMD_HAVE_X86)
    case SimdTier::kAvx2:
      HalfspacesAvx2(set, bytes, stride, n, mask);
      return;
    case SimdTier::kSse2:
      HalfspacesSse2(set, bytes, stride, n, mask);
      return;
#endif
    default:
      HalfspacesScalar(set, bytes, stride, n, mask);
  }
}

}  // namespace mds
