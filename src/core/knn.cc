#include "core/knn.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "core/simd_dist.h"

namespace mds {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Rows per distance-kernel call in the scan loops: big enough to amortize
/// dispatch, small enough that the d2 scratch stays in L1.
constexpr size_t kDistChunk = 256;

// The result heap is a max-heap in Neighbor order, (squared_distance, id),
// so the k kept are the first k of that order whatever order rows arrive
// in: a tie at the k-th distance keeps the lowest id on every engine (and
// on every shard, which is what lets mdsc's merge equal one server).
void HeapInsert(std::vector<Neighbor>* heap, size_t k, Neighbor n) {
  if (heap->size() < k) {
    heap->push_back(n);
    std::push_heap(heap->begin(), heap->end());
  } else if (n < heap->front()) {
    std::pop_heap(heap->begin(), heap->end());
    heap->back() = n;
    std::push_heap(heap->begin(), heap->end());
  }
}

std::vector<Neighbor> HeapFinish(std::vector<Neighbor> heap) {
  std::sort(heap.begin(), heap.end());
  return heap;
}

double CurrentBound(const std::vector<Neighbor>& heap, size_t k) {
  return heap.size() < k ? kInf : heap.front().squared_distance;
}

}  // namespace

std::vector<Neighbor> KdKnnSearcher::BruteForce(const double* p, size_t k,
                                                KnnStats* stats) const {
  const PointSet& points = index_->points();
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  // Chunked over the contiguous row store: the kernel fills d2 for a block
  // of rows, and the heap consumes them in the original order.
  double d2[kDistChunk];
  const size_t n = points.size();
  for (uint64_t base = 0; base < n; base += kDistChunk) {
    const size_t len = std::min<size_t>(kDistChunk, n - base);
    SquaredDistanceBatch(p, points.point(base), len, points.dim(), d2);
    for (size_t i = 0; i < len; ++i) {
      if (stats != nullptr) ++stats->points_examined;
      HeapInsert(&heap, k, {base + i, d2[i]});
    }
  }
  return HeapFinish(std::move(heap));
}

void KdKnnSearcher::ScanLeaf(uint32_t ordinal, const double* p, size_t k,
                             double lower_bound_sq,
                             std::vector<Neighbor>* heap,
                             KnnStats* stats) const {
  const KdTreeIndex::Node& leaf = index_->leaf(ordinal);
  const PointSet& points = index_->points();
  const auto& order = index_->clustered_order();
  if (stats != nullptr) {
    ++stats->leaves_examined;
    // The paper's TOP(k - f) refinement: result entries already closer than
    // the leaf's distance lower bound can never be displaced by its points.
    uint64_t f = 0;
    for (const Neighbor& n : *heap) {
      if (n.squared_distance < lower_bound_sq) ++f;
    }
    stats->top_k_pruned += f;
  }
  // The leaf's rows are contiguous in clustered order; gather-kernel their
  // distances a chunk at a time, then feed the heap.
  double d2[kDistChunk];
  for (uint64_t r = leaf.row_begin; r < leaf.row_end; r += kDistChunk) {
    const size_t len =
        std::min<uint64_t>(kDistChunk, leaf.row_end - r);
    const uint64_t* ids = &order[r];
    SquaredDistanceGather(p, points.raw().data(), ids, len, points.dim(), d2);
    for (size_t i = 0; i < len; ++i) {
      if (stats != nullptr) ++stats->points_examined;
      HeapInsert(heap, k, {ids[i], d2[i]});
    }
  }
}

std::vector<Neighbor> KdKnnSearcher::BestFirst(const double* p, size_t k,
                                               KnnStats* stats) const {
  // Classic branch-and-bound: a min-heap of tree nodes keyed by the
  // distance from p to their tight bounding box.
  using Entry = std::pair<double, uint32_t>;  // (min dist^2, node index)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  const auto& nodes = index_->nodes();
  pq.emplace(nodes[0].bounds.MinSquaredDistance(p), 0u);
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);
  while (!pq.empty()) {
    auto [d2, idx] = pq.top();
    pq.pop();
    // A node exactly at the bound may hold a tie with a lower id.
    if (d2 > CurrentBound(heap, k)) break;
    const KdTreeIndex::Node& node = nodes[idx];
    if (node.split_dim < 0) {
      uint32_t ordinal = node.first_leaf;
      ScanLeaf(ordinal, p, k, d2, &heap, stats);
      continue;
    }
    pq.emplace(nodes[node.left].bounds.MinSquaredDistance(p), node.left);
    pq.emplace(nodes[node.right].bounds.MinSquaredDistance(p), node.right);
  }
  return HeapFinish(std::move(heap));
}

namespace {

/// Enumerates the leaves adjacent to the `positive` face (along `face_dim`,
/// at coordinate `plane`) of the region rectangle `region`: every leaf
/// whose partition box touches that plane from the outside and overlaps the
/// face rectangle in the other dimensions.
void CollectFaceNeighbors(const KdTreeIndex& index, const Box& region,
                          size_t face_dim, bool positive, double plane,
                          std::vector<uint32_t>* out) {
  const auto& nodes = index.nodes();
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    uint32_t idx = stack.back();
    stack.pop_back();
    const KdTreeIndex::Node& node = nodes[idx];
    if (node.split_dim < 0) {
      out->push_back(node.first_leaf);
      continue;
    }
    const size_t j = static_cast<size_t>(node.split_dim);
    const double s = node.split_value;
    if (j == face_dim) {
      // Single path: we want regions touching `plane` from the outside.
      bool go_right;
      if (positive) {
        go_right = s <= plane;
      } else {
        go_right = s < plane;
      }
      stack.push_back(go_right ? node.right : node.left);
    } else {
      if (region.lo(j) <= s) stack.push_back(node.left);
      if (region.hi(j) >= s) stack.push_back(node.right);
    }
  }
}

}  // namespace

std::vector<Neighbor> KdKnnSearcher::BoundaryGrow(const double* p, size_t k,
                                                  KnnStats* stats) const {
  const size_t d = index_->dim();
  const uint32_t num_leaves = index_->num_leaves();
  const Box& root_region = index_->root().region;

  std::vector<char> explored(num_leaves, 0);
  std::vector<char> queued(num_leaves, 0);
  std::vector<Neighbor> heap;
  heap.reserve(k + 1);

  // Frontier of candidate leaves ordered by their region's distance to p —
  // the "index list" of §3.3. A leaf enters the list when it lies across a
  // boundary point b of the explored region with dist(p, b) at most the
  // current k-th distance m.
  using Entry = std::pair<double, uint32_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;

  std::vector<double> b(d);
  std::vector<uint32_t> adjacent;

  // Pushes the unexplored leaves across every face of `leaf_ordinal` whose
  // boundary point is closer than the current bound m.
  auto expand = [&](uint32_t leaf_ordinal) {
    const Box& region = index_->leaf(leaf_ordinal).region;
    for (size_t j = 0; j < d; ++j) {
      for (int side = 0; side < 2; ++side) {
        const bool positive = side == 1;
        const double plane = positive ? region.hi(j) : region.lo(j);
        // Faces on the root boundary have no outside.
        if (positive ? plane >= root_region.hi(j)
                     : plane <= root_region.lo(j)) {
          continue;
        }
        // Boundary point: projection of p onto the face, clamped to it —
        // a vertex of the face when p projects outside (the paper's
        // "vertex of a kd-box" boundary points are this degenerate case).
        for (size_t a = 0; a < d; ++a) {
          b[a] = std::min(std::max(p[a], region.lo(a)), region.hi(a));
        }
        b[j] = plane;
        if (stats != nullptr) ++stats->boundary_points_checked;
        double face_d2 = SquaredDistance(p, b.data(), d);
        if (face_d2 > CurrentBound(heap, k)) continue;
        adjacent.clear();
        CollectFaceNeighbors(*index_, region, j, positive, plane, &adjacent);
        for (uint32_t nb : adjacent) {
          if (explored[nb] || queued[nb]) continue;
          const Box& nb_region = index_->leaf(nb).region;
          double d2 = nb_region.MinSquaredDistance(p);
          if (d2 > CurrentBound(heap, k)) continue;
          queued[nb] = 1;
          frontier.emplace(d2, nb);
        }
      }
    }
  };

  uint32_t start = index_->FindLeaf(p);
  ScanLeaf(start, p, k, 0.0, &heap, stats);
  explored[start] = 1;
  expand(start);

  while (!frontier.empty()) {
    auto [d2, ordinal] = frontier.top();
    frontier.pop();
    if (d2 > CurrentBound(heap, k)) break;
    if (explored[ordinal]) continue;
    explored[ordinal] = 1;
    if (stats != nullptr) ++stats->rounds;
    ScanLeaf(ordinal, p, k, d2, &heap, stats);
    expand(ordinal);
  }
  return HeapFinish(std::move(heap));
}

std::vector<Neighbor> KdKnnSearcher::BoundaryGrow(const float* p, size_t k,
                                                  KnnStats* stats) const {
  std::vector<double> q(index_->dim());
  for (size_t j = 0; j < index_->dim(); ++j) q[j] = p[j];
  return BoundaryGrow(q.data(), k, stats);
}

}  // namespace mds
