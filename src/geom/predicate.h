#ifndef MDS_GEOM_PREDICATE_H_
#define MDS_GEOM_PREDICATE_H_

#include <cstdint>

#include "core/simd_dist.h"
#include "geom/box.h"
#include "geom/polyhedron.h"

namespace mds {

/// Uniform query-region interface for the execution layer: every access
/// path plans candidate row ranges against *some* convex region (a box for
/// the layered grid and TABLESAMPLE, a polyhedron for kd-tree / Voronoi /
/// full-scan queries), and the shared scanner only needs two operations on
/// it — per-point membership for `partial` ranges and box classification
/// for planning. Adapters are views: the underlying region must outlive
/// the predicate.
class SpatialPredicate {
 public:
  virtual ~SpatialPredicate() = default;

  virtual size_t dim() const = 0;

  /// Per-row membership test (the `partial`-range fallback).
  virtual bool Matches(const float* p) const = 0;

  /// Batch membership over a strided view of `n` rows: row i's dim()
  /// floats start `i * stride` bytes past `rows`, at any alignment.
  /// mask[i] equals Matches on that row, bit-for-bit, through a vector
  /// kernel (core/simd_dist.h). Scanners call this once per pinned page,
  /// on the page's own bytes, instead of n virtual calls.
  virtual void MatchBatch(const void* rows, size_t stride, size_t n,
                          uint8_t* mask) const = 0;

  /// Classifies a candidate bounding box against the region, with the same
  /// conservative contract as Polyhedron::Classify: kInside and kOutside
  /// are exact, undecided boxes are reported kPartial.
  virtual BoxClass Classify(const Box& box) const = 0;
};

/// View of a convex Polyhedron as a predicate. The constructor compiles
/// the halfspaces once into the flat arrays of the batch kernel.
class PolyhedronPredicate final : public SpatialPredicate {
 public:
  explicit PolyhedronPredicate(const Polyhedron* poly);

  size_t dim() const override { return poly_->dim(); }
  bool Matches(const float* p) const override { return poly_->Contains(p); }
  /// SIMD halfspace test (core/simd_dist.h), bit-identical to
  /// Polyhedron::Contains; an axis-aligned polyhedron (FromBox) runs the
  /// interval form.
  void MatchBatch(const void* rows, size_t stride, size_t n,
                  uint8_t* mask) const override;
  BoxClass Classify(const Box& box) const override {
    return poly_->Classify(box);
  }

  const Polyhedron& polyhedron() const { return *poly_; }

 private:
  const Polyhedron* poly_;
  HalfspaceSet halfspaces_;
};

/// View of an axis-aligned Box as a predicate. Box-vs-box classification
/// is exact in all three cases.
class BoxPredicate final : public SpatialPredicate {
 public:
  explicit BoxPredicate(const Box* box) : box_(box) {}

  size_t dim() const override { return box_->dim(); }
  bool Matches(const float* p) const override { return box_->Contains(p); }
  /// SIMD interval test (core/simd_dist.h), bit-identical to
  /// Box::Contains including its NaN-counts-as-inside comparison shape.
  void MatchBatch(const void* rows, size_t stride, size_t n,
                  uint8_t* mask) const override;
  BoxClass Classify(const Box& box) const override;

  const Box& box() const { return *box_; }

 private:
  const Box* box_;
};

}  // namespace mds

#endif  // MDS_GEOM_PREDICATE_H_
