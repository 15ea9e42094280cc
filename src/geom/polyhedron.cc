#include "geom/polyhedron.h"

#include <cmath>

#include "common/rng.h"

namespace mds {

Polyhedron Polyhedron::FromBox(const Box& box) {
  Polyhedron poly(box.dim());
  for (size_t j = 0; j < box.dim(); ++j) {
    std::vector<double> up(box.dim(), 0.0);
    up[j] = 1.0;
    poly.AddHalfspace(up, box.hi(j));
    std::vector<double> down(box.dim(), 0.0);
    down[j] = -1.0;
    poly.AddHalfspace(down, -box.lo(j));
  }
  return poly;
}

Polyhedron Polyhedron::BallApproximation(const std::vector<double>& center,
                                         double radius, size_t facets) {
  const size_t d = center.size();
  Polyhedron poly(d);
  auto add_tangent = [&](std::vector<double> n) {
    double norm = 0.0;
    for (double v : n) norm += v * v;
    norm = std::sqrt(norm);
    if (norm == 0.0) return;
    double offset = radius;
    for (size_t j = 0; j < d; ++j) {
      n[j] /= norm;
      offset += n[j] * center[j];
    }
    poly.AddHalfspace(std::move(n), offset);
  };
  // Axis-aligned faces first so the polyhedron is always bounded.
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> up(d, 0.0);
    up[j] = 1.0;
    add_tangent(up);
    std::vector<double> down(d, 0.0);
    down[j] = -1.0;
    add_tangent(down);
  }
  // Deterministic pseudo-random directions for the remaining facets.
  Rng rng(0xfacef00dULL + d);
  for (size_t f = 2 * d; f < facets; ++f) {
    std::vector<double> n(d);
    for (size_t j = 0; j < d; ++j) n[j] = rng.NextGaussian();
    add_tangent(std::move(n));
  }
  return poly;
}

void Polyhedron::AddHalfspace(std::vector<double> normal, double offset) {
  MDS_CHECK(normal.size() == dim_);
  halfspaces_.push_back(Halfspace{std::move(normal), offset});
}

bool Polyhedron::Contains(const float* p) const {
  for (const Halfspace& h : halfspaces_) {
    if (!h.Contains(p)) return false;
  }
  return true;
}

bool Polyhedron::Contains(const double* p) const {
  for (const Halfspace& h : halfspaces_) {
    if (!h.Contains(p)) return false;
  }
  return true;
}

BoxClass Polyhedron::Classify(const Box& box) const {
  bool inside = true;
  for (const Halfspace& h : halfspaces_) {
    // Support values of n.x over the box: pick hi when the normal component
    // is positive for the max, lo otherwise (and vice versa for the min).
    double max_dot = 0.0;
    double min_dot = 0.0;
    for (size_t j = 0; j < dim_; ++j) {
      double n = h.normal[j];
      // A zero component adds nothing over any box; summing 0 * +-inf
      // (a box unbounded on that axis) would turn both support values
      // into NaN and the box into a false "inside".
      if (n == 0.0) continue;
      if (n > 0.0) {
        max_dot += n * box.hi(j);
        min_dot += n * box.lo(j);
      } else {
        max_dot += n * box.lo(j);
        min_dot += n * box.hi(j);
      }
    }
    if (min_dot > h.offset) return BoxClass::kOutside;
    if (max_dot > h.offset) inside = false;
  }
  return inside ? BoxClass::kInside : BoxClass::kPartial;
}

bool Polyhedron::ContainsAll(const PointSet& points,
                             const std::vector<uint64_t>& ids) const {
  for (uint64_t id : ids) {
    if (!Contains(points.point(id))) return false;
  }
  return true;
}

}  // namespace mds
