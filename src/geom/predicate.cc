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

}  // namespace mds
