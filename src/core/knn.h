#ifndef MDS_CORE_KNN_H_
#define MDS_CORE_KNN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/kdtree.h"

namespace mds {

/// One k-nearest-neighbor answer.
struct Neighbor {
  uint64_t id = 0;            ///< original point id
  double squared_distance = 0.0;

  bool operator<(const Neighbor& other) const {
    return squared_distance < other.squared_distance ||
           (squared_distance == other.squared_distance && id < other.id);
  }
};

/// Work counters for k-NN searches (E6).
struct KnnStats {
  uint64_t leaves_examined = 0;
  uint64_t points_examined = 0;
  uint64_t boundary_points_checked = 0;  ///< boundary-grow only
  uint64_t rounds = 0;                   ///< boundary-grow expansion rounds
  uint64_t top_k_pruned = 0;  ///< points skipped by the TOP(k-f) refinement
};

/// k-nearest-neighbor search over a kd-tree (§3.3).
///
/// Three interchangeable engines, all exact:
///  * BruteForce       — ground truth, linear scan.
///  * BestFirst        — classic priority-queue descent by box distance
///                       (the standard memory-algorithm baseline).
///  * BoundaryGrow     — the paper's algorithm: grow the explored region
///                       around p leaf-box by leaf-box, maintaining the
///                       result list; a leaf across a boundary point b is
///                       examined only while dist(p, b) <= m, the current
///                       k-th distance, and its scan is bounded by the
///                       TOP(k - f) refinement.
///
/// All three return the first k rows in Neighbor order, (squared_distance,
/// id): a tie at the k-th distance keeps the lowest ids, so the answer
/// does not depend on the order an engine visits rows in.
class KdKnnSearcher {
 public:
  explicit KdKnnSearcher(const KdTreeIndex* index) : index_(index) {}

  /// Exact k nearest neighbors of `p` (ascending (distance, id)).
  std::vector<Neighbor> BruteForce(const double* p, size_t k,
                                   KnnStats* stats = nullptr) const;
  std::vector<Neighbor> BestFirst(const double* p, size_t k,
                                  KnnStats* stats = nullptr) const;
  std::vector<Neighbor> BoundaryGrow(const double* p, size_t k,
                                     KnnStats* stats = nullptr) const;

  /// Float-point convenience wrappers.
  std::vector<Neighbor> BoundaryGrow(const float* p, size_t k,
                                     KnnStats* stats = nullptr) const;

 private:
  /// Scans leaf `ordinal`, merging its points into the running result heap
  /// (max-heap in Neighbor order, capped at k). `lower_bound_sq` is a
  /// proven lower bound on the distance of every point in the leaf, used
  /// for the paper's TOP(k - f) refinement accounting.
  void ScanLeaf(uint32_t ordinal, const double* p, size_t k,
                double lower_bound_sq, std::vector<Neighbor>* heap,
                KnnStats* stats) const;

  const KdTreeIndex* index_;
};

}  // namespace mds

#endif  // MDS_CORE_KNN_H_
