#ifndef MDS_GEOM_PREDICATE_H_
#define MDS_GEOM_PREDICATE_H_

#include <cstdint>

#include "core/simd_dist.h"
#include "geom/polyhedron.h"

namespace mds {

/// The query region as the execution layer sees it: every access path
/// plans candidate row ranges against a convex polyhedron (a box query
/// runs as its Polyhedron::FromBox on every path, so a box has one
/// meaning), and the shared scanner needs two operations on it —
/// membership for `partial` ranges and box classification for planning.
/// The constructor compiles the halfspaces once into the flat arrays of
/// the batch kernel. A view: the polyhedron must outlive the predicate.
class PolyhedronPredicate {
 public:
  explicit PolyhedronPredicate(const Polyhedron* poly);

  size_t dim() const { return poly_->dim(); }

  /// Per-row membership test (the `partial`-range fallback).
  bool Matches(const float* p) const { return poly_->Contains(p); }

  /// Batch membership over a strided view of `n` rows: row i's dim()
  /// floats start `i * stride` bytes past `rows`, at any alignment.
  /// mask[i] equals Matches on that row, bit-for-bit, through the SIMD
  /// halfspace kernel (core/simd_dist.h); an axis-aligned polyhedron
  /// (FromBox) runs the interval form. Scanners call this once per pinned
  /// page, on the page's own bytes.
  void MatchBatch(const void* rows, size_t stride, size_t n,
                  uint8_t* mask) const;

  /// Classifies a candidate bounding box against the region, with
  /// Polyhedron::Classify's conservative contract: kInside and kOutside
  /// are exact, undecided boxes are reported kPartial.
  BoxClass Classify(const Box& box) const { return poly_->Classify(box); }

  const Polyhedron& polyhedron() const { return *poly_; }

 private:
  const Polyhedron* poly_;
  HalfspaceSet halfspaces_;
};

}  // namespace mds

#endif  // MDS_GEOM_PREDICATE_H_
