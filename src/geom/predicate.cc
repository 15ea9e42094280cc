#include "geom/predicate.h"

namespace mds {

PolyhedronPredicate::PolyhedronPredicate(const Polyhedron* poly)
    : poly_(poly), halfspaces_(poly->dim()) {
  for (const Halfspace& h : poly->halfspaces()) {
    halfspaces_.Add(h.normal.data(), h.offset);
  }
}

void PolyhedronPredicate::MatchBatch(const void* rows, size_t stride,
                                     size_t n, uint8_t* mask) const {
  HalfspacesContainBatch(halfspaces_, rows, stride, n, mask);
}

void BoxPredicate::MatchBatch(const void* rows, size_t stride, size_t n,
                              uint8_t* mask) const {
  BoxContainsBatch(box_->lo().data(), box_->hi().data(), rows, stride, n,
                   box_->dim(), mask);
}

BoxClass BoxPredicate::Classify(const Box& box) const {
  if (box_->ContainsBox(box)) return BoxClass::kInside;
  if (!box_->Intersects(box)) return BoxClass::kOutside;
  return BoxClass::kPartial;
}

}  // namespace mds
