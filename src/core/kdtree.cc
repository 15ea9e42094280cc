#include "core/kdtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/parallel.h"

namespace mds {

namespace {

uint64_t NextPowerOfTwo(uint64_t x) {
  uint64_t p = 1;
  while (p < x) p <<= 1;
  return p;
}

/// Post-order numbering plus covered-leaf intervals: the invariant behind
/// the BETWEEN trick (§3.2) — a subtree's leaves are contiguous ordinals.
/// `nodes` is an implicit complete tree (children of i at 2i+1, 2i+2);
/// leaves live at [first_leaf_idx, 2*first_leaf_idx].
void AssignPostOrder(std::vector<KdTreeIndex::Node>* nodes,
                     size_t first_leaf_idx) {
  uint32_t counter = 0;
  // Iterative post-order over the implicit complete tree.
  struct Item {
    uint32_t idx;
    bool expanded;
  };
  std::vector<Item> stack;
  stack.push_back({0, false});
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    KdTreeIndex::Node& node = (*nodes)[item.idx];
    if (node.split_dim < 0) {
      node.post_order = counter++;
      uint32_t ordinal = item.idx - static_cast<uint32_t>(first_leaf_idx);
      node.first_leaf = ordinal;
      node.last_leaf = ordinal;
      continue;
    }
    if (!item.expanded) {
      stack.push_back({item.idx, true});
      stack.push_back({node.right, false});
      stack.push_back({node.left, false});
    } else {
      node.post_order = counter++;
      node.first_leaf = (*nodes)[node.left].first_leaf;
      node.last_leaf = (*nodes)[node.right].last_leaf;
    }
  }
}

}  // namespace

Result<KdTreeIndex> KdTreeIndex::Build(const PointSet* points,
                                       const KdTreeConfig& config) {
  const uint64_t n = points->size();
  const size_t d = points->dim();
  if (n == 0 || d == 0) {
    return Status::InvalidArgument("KdTreeIndex::Build: empty point set");
  }
  uint64_t leaves = config.num_leaves;
  if (leaves == 0) {
    // The paper's optimum: #leaves == points per leaf == sqrt(N).
    leaves = NextPowerOfTwo(static_cast<uint64_t>(
        std::ceil(std::sqrt(static_cast<double>(n)))));
  }
  leaves = NextPowerOfTwo(leaves);
  while (leaves > 1 && leaves > n) leaves >>= 1;

  KdTreeIndex index;
  index.points_ = points;
  index.num_leaves_ = static_cast<uint32_t>(leaves);
  uint32_t depth = 0;  // number of split levels; leaves = 2^depth
  while ((uint64_t{1} << depth) < leaves) ++depth;
  index.num_levels_ = depth + 1;

  const size_t num_nodes = 2 * leaves - 1;
  index.nodes_.resize(num_nodes);
  index.clustered_order_.resize(n);
  for (uint64_t i = 0; i < n; ++i) index.clustered_order_[i] = i;
  std::vector<uint64_t>& perm = index.clustered_order_;

  // Root region = bounding box of the data.
  index.nodes_[0].region = Box::Bounding(*points);
  index.nodes_[0].row_begin = 0;
  index.nodes_[0].row_end = n;

  auto tight_box = [&](uint64_t begin, uint64_t end) {
    Box b = Box::Empty(d);
    for (uint64_t r = begin; r < end; ++r) b.Extend(points->point(perm[r]));
    return b;
  };

  // Iterative level-by-level build, the paper's "build the tree iteratively
  // (not recursively)" lesson: each pass splits every node of one level.
  // The nodes of one level partition the permutation into disjoint slices,
  // so they split in parallel across the worker pool (each worker handles
  // whole subtree slices — the task-recursion shape without recursion);
  // levels are barriers. Node computations are pure functions of their
  // slice, so the tree is identical for any thread count.
  TaskPool build_pool(config.build_threads);
  for (uint32_t level = 0; level < depth; ++level) {
    const size_t level_begin = (size_t{1} << level) - 1;
    const size_t level_end = (size_t{1} << (level + 1)) - 1;
    const size_t level_nodes = level_end - level_begin;
    auto split_node = [&](uint64_t node_offset) {
      const size_t idx = level_begin + node_offset;
      Node& node = index.nodes_[idx];
      const uint64_t b = node.row_begin;
      const uint64_t e = node.row_end;
      size_t dim;
      if (config.max_spread_split) {
        Box tb = tight_box(b, e);
        dim = 0;
        double best = -1.0;
        for (size_t j = 0; j < d; ++j) {
          double spread = tb.hi(j) - tb.lo(j);
          if (spread > best) {
            best = spread;
            dim = j;
          }
        }
      } else {
        dim = level % d;
      }
      const uint64_t m = b + (e - b + 1) / 2;  // left child gets ceil half
      std::nth_element(
          perm.begin() + b, perm.begin() + m, perm.begin() + e,
          [&](uint64_t x, uint64_t y) {
            return points->coord(x, dim) < points->coord(y, dim);
          });
      const double split = points->coord(perm[m], dim);
      node.split_dim = static_cast<int32_t>(dim);
      node.split_value = split;
      const size_t li = 2 * idx + 1;
      const size_t ri = 2 * idx + 2;
      node.left = static_cast<uint32_t>(li);
      node.right = static_cast<uint32_t>(ri);
      Node& lnode = index.nodes_[li];
      Node& rnode = index.nodes_[ri];
      lnode.region = node.region;
      lnode.region.set_hi(dim, split);
      lnode.row_begin = b;
      lnode.row_end = m;
      rnode.region = node.region;
      rnode.region.set_lo(dim, split);
      rnode.row_begin = m;
      rnode.row_end = e;
    };
    ParallelFor(&build_pool, level_nodes, /*grain=*/1, split_node);
  }

  // Leaf ordinals, left to right.
  const size_t first_leaf_idx = leaves - 1;
  index.leaf_node_index_.resize(leaves);
  for (size_t o = 0; o < leaves; ++o) {
    index.leaf_node_index_[o] = static_cast<uint32_t>(first_leaf_idx + o);
  }

  // Tight bounding boxes bottom-up. The leaf scans dominate (they touch
  // every point once) and are independent, so they run on the pool; the
  // internal merges are O(#nodes) and stay serial.
  // A leaf's bounds must hold every row for a `full` range to be exact; a
  // NaN coordinate lies in no interval, so it opens its axis to
  // (-inf, inf) and the leaf is never wholly inside a bounded query.
  ParallelFor(&build_pool, leaves, /*grain=*/1, [&](uint64_t o) {
    Node& node = index.nodes_[first_leaf_idx + o];
    node.bounds = tight_box(node.row_begin, node.row_end);
    for (uint64_t r = node.row_begin; r < node.row_end; ++r) {
      for (size_t j = 0; j < d; ++j) {
        if (std::isnan(points->coord(perm[r], j))) {
          node.bounds.set_lo(j, -std::numeric_limits<double>::infinity());
          node.bounds.set_hi(j, std::numeric_limits<double>::infinity());
        }
      }
    }
  });
  for (size_t idx = first_leaf_idx; idx-- > 0;) {
    Node& node = index.nodes_[idx];
    node.bounds = index.nodes_[node.left].bounds;
    const Box& rb = index.nodes_[node.right].bounds;
    node.bounds.Extend(rb.lo().data());
    node.bounds.Extend(rb.hi().data());
  }

  AssignPostOrder(&index.nodes_, first_leaf_idx);
  return index;
}

Result<KdTreeIndex> KdTreeIndex::ExtractSubtree(const KdTreeIndex& source,
                                                uint32_t node_index) {
  if (node_index >= source.nodes_.size()) {
    return Status::InvalidArgument(
        "KdTreeIndex::ExtractSubtree: node index " +
        std::to_string(node_index) + " out of range");
  }
  const Node& src_root = source.nodes_[node_index];
  const uint64_t leaves = src_root.last_leaf - src_root.first_leaf + 1;
  const uint64_t base_row = src_root.row_begin;
  const uint32_t base_leaf = src_root.first_leaf;

  KdTreeIndex index;
  index.points_ = source.points_;
  index.num_leaves_ = static_cast<uint32_t>(leaves);
  uint32_t depth = 0;
  while ((uint64_t{1} << depth) < leaves) ++depth;
  index.num_levels_ = depth + 1;

  // Map the new implicit complete tree onto the source's: new node j sits
  // at old index old_of_new[j], and the implicit child rule is preserved
  // on both sides, so children map to children.
  const size_t num_nodes = 2 * leaves - 1;
  std::vector<uint32_t> old_of_new(num_nodes);
  old_of_new[0] = node_index;
  for (size_t j = 0; j + 1 < leaves; ++j) {
    old_of_new[2 * j + 1] = 2 * old_of_new[j] + 1;
    old_of_new[2 * j + 2] = 2 * old_of_new[j] + 2;
  }

  index.nodes_.resize(num_nodes);
  const size_t first_leaf_idx = leaves - 1;
  for (size_t j = 0; j < num_nodes; ++j) {
    Node node = source.nodes_[old_of_new[j]];
    if (node.split_dim >= 0) {
      node.left = static_cast<uint32_t>(2 * j + 1);
      node.right = static_cast<uint32_t>(2 * j + 2);
    } else {
      node.left = kNoChild;
      node.right = kNoChild;
    }
    node.row_begin -= base_row;
    node.row_end -= base_row;
    node.first_leaf -= base_leaf;
    node.last_leaf -= base_leaf;
    index.nodes_[j] = node;
  }

  index.leaf_node_index_.resize(leaves);
  for (size_t o = 0; o < leaves; ++o) {
    index.leaf_node_index_[o] = static_cast<uint32_t>(first_leaf_idx + o);
  }
  index.clustered_order_.assign(
      source.clustered_order_.begin() + static_cast<ptrdiff_t>(base_row),
      source.clustered_order_.begin() + static_cast<ptrdiff_t>(src_root.row_end));
  AssignPostOrder(&index.nodes_, first_leaf_idx);
  return index;
}

uint32_t KdTreeIndex::FindLeaf(const double* p) const {
  uint32_t idx = 0;
  while (nodes_[idx].split_dim >= 0) {
    const Node& node = nodes_[idx];
    idx = p[node.split_dim] <= node.split_value ? node.left : node.right;
  }
  return idx - (num_leaves_ - 1);
}

uint32_t KdTreeIndex::FindLeaf(const float* p) const {
  std::vector<double> q(dim());
  for (size_t j = 0; j < dim(); ++j) q[j] = p[j];
  return FindLeaf(q.data());
}

uint32_t KdTreeIndex::FindLeafDirected(const double* b, size_t face_dim,
                                       bool positive) const {
  uint32_t idx = 0;
  while (nodes_[idx].split_dim >= 0) {
    const Node& node = nodes_[idx];
    const size_t j = static_cast<size_t>(node.split_dim);
    const double v = b[j];
    bool go_left;
    if (v < node.split_value) {
      go_left = true;
    } else if (v > node.split_value) {
      go_left = false;
    } else if (j == face_dim) {
      // Exactly on a split plane along the crossing axis: the direction
      // decides which side we are entering.
      go_left = !positive;
    } else {
      go_left = true;  // same closure convention as FindLeaf
    }
    idx = go_left ? node.left : node.right;
  }
  return idx - (num_leaves_ - 1);
}

template <typename Visitor>
void KdTreeIndex::Visit(const Polyhedron& query, Visitor&& visitor,
                        KdQueryStats* stats) const {
  KdQueryStats local;
  KdQueryStats* st = stats != nullptr ? stats : &local;
  // Explicit stack; the paper recurses in a stored procedure, we avoid
  // deep call stacks the same way the build does.
  std::vector<uint32_t> stack = {0};
  while (!stack.empty()) {
    uint32_t idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    ++st->nodes_visited;
    BoxClass cls = query.Classify(node.bounds);
    if (cls == BoxClass::kOutside) continue;
    if (cls == BoxClass::kInside) {
      visitor.EmitFull(node);
      continue;
    }
    if (node.split_dim < 0) {
      ++st->leaves_partial;
      visitor.EmitPartial(node);
      continue;
    }
    stack.push_back(node.right);
    stack.push_back(node.left);
  }
}

namespace {

struct CollectVisitor {
  const KdTreeIndex* index;
  const Polyhedron* query;
  std::vector<uint64_t>* out;
  KdQueryStats* stats;

  void EmitFull(const KdTreeIndex::Node& node) {
    if (stats != nullptr) {
      // Count the whole subtree's leaves as range-emitted.
      stats->leaves_full += node.last_leaf - node.first_leaf + 1;
    }
    const auto& order = index->clustered_order();
    for (uint64_t r = node.row_begin; r < node.row_end; ++r) {
      out->push_back(order[r]);
    }
    if (stats != nullptr) {
      stats->points_emitted += node.row_end - node.row_begin;
    }
  }

  void EmitPartial(const KdTreeIndex::Node& node) {
    const auto& order = index->clustered_order();
    const PointSet& points = index->points();
    for (uint64_t r = node.row_begin; r < node.row_end; ++r) {
      uint64_t id = order[r];
      if (stats != nullptr) ++stats->points_tested;
      if (query->Contains(points.point(id))) {
        out->push_back(id);
        if (stats != nullptr) ++stats->points_emitted;
      }
    }
  }
};

struct PlanVisitor {
  std::vector<std::pair<uint64_t, uint64_t>>* full;
  std::vector<std::pair<uint64_t, uint64_t>>* partial;
  KdQueryStats* stats;

  void EmitFull(const KdTreeIndex::Node& node) {
    if (stats != nullptr) {
      stats->leaves_full += node.last_leaf - node.first_leaf + 1;
    }
    full->emplace_back(node.row_begin, node.row_end);
  }
  void EmitPartial(const KdTreeIndex::Node& node) {
    partial->emplace_back(node.row_begin, node.row_end);
  }
};

}  // namespace

void KdTreeIndex::QueryPolyhedron(const Polyhedron& query,
                                  std::vector<uint64_t>* out,
                                  KdQueryStats* stats) const {
  CollectVisitor visitor{this, &query, out, stats};
  Visit(query, visitor, stats);
}

void KdTreeIndex::QueryBox(const Box& query, std::vector<uint64_t>* out,
                           KdQueryStats* stats) const {
  Polyhedron poly = Polyhedron::FromBox(query);
  QueryPolyhedron(poly, out, stats);
}

void KdTreeIndex::PlanPolyhedron(
    const Polyhedron& query, std::vector<std::pair<uint64_t, uint64_t>>* full,
    std::vector<std::pair<uint64_t, uint64_t>>* partial,
    KdQueryStats* stats) const {
  PlanVisitor visitor{full, partial, stats};
  Visit(query, visitor, stats);
}

}  // namespace mds
