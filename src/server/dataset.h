#ifndef MDS_SERVER_DATASET_H_
#define MDS_SERVER_DATASET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/result.h"
#include "core/index_io.h"
#include "core/kdtree.h"
#include "core/point_table.h"
#include "geom/point_set.h"
#include "sdss/catalog.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace mds {

/// What one mdsd process serves: a kd-tree-clustered point table over a
/// shared thread-safe BufferPool, plus the in-memory kd-tree for planning
/// and kNN. One immutable dataset, many concurrent readers — the paper's
/// serving shape (the index is rebuilt offline per data release). The
/// dataset comes from one of two sources: Build generates a synthetic
/// SDSS color catalog in memory, Load reopens a dataset file written
/// offline by `mdsctl build` (WriteDatasetFile below).
struct DatasetConfig {
  uint64_t num_rows = 1000000;
  uint64_t seed = 42;
  /// Buffer-pool capacity in pages; defaults comfortably above the table
  /// size so steady-state serving is hit-dominated.
  size_t pool_pages = 1u << 16;
  /// Shard-of-N serving (mdsd --shard-index/--shard-count behind an mdsc
  /// coordinator). Every shard generates the identical full catalog and
  /// kd-tree (both deterministic in num_rows and seed), then materializes
  /// only the clustered slice owned by the shard_index-th subtree at tree
  /// level log2(shard_count). Because the shard's tree and table keep the
  /// global clustered order and global objids verbatim
  /// (KdTreeIndex::ExtractSubtree), concatenating shard replies in shard
  /// order reproduces a single server's replies exactly. shard_count must
  /// be a power of two not exceeding the tree's leaf count; 1 = serve
  /// everything.
  uint32_t shard_index = 0;
  uint32_t shard_count = 1;
};

class ServedDataset {
 public:
  struct LoadOptions {
    /// Buffer-pool capacity in pages for the reopened file.
    size_t pool_pages = 1u << 16;
    /// Serve pages from an mmap(2) mapping of the file (MmapPager);
    /// FilePager is the automatic fallback when mmap fails and the forced
    /// path when this is false.
    bool prefer_mmap = true;
  };

  /// Generates the catalog, builds the kd-tree (parallel build) and
  /// materializes the clustered table.
  static Result<ServedDataset> Build(const DatasetConfig& config);

  /// Reopens a dataset file written by WriteDatasetFile: validates the
  /// superblock and manifest, loads the full point set and kd-tree from
  /// their chains, re-extracts the manifest's shard subtree, and attaches
  /// the stored table pages — no row is re-materialized. Fails with
  /// Corruption for damaged/incomplete files and InvalidArgument for
  /// format-version mismatches (same taxonomy as IndexIo).
  static Result<ServedDataset> Load(const std::string& path,
                                    const LoadOptions& options);
  static Result<ServedDataset> Load(const std::string& path);

  const PointTableBinding& binding() const { return binding_; }
  const KdTreeIndex& tree() const { return *tree_; }
  /// The FULL point set (all shards); the tree/table may cover a slice.
  const PointSet& points() const {
    return catalog_ ? catalog_->colors : *loaded_points_;
  }
  BufferPool* pool() const { return pool_.get(); }
  size_t dim() const { return binding_.dim; }
  uint64_t num_rows() const { return binding_.table->num_rows(); }
  uint32_t shard_index() const { return shard_index_; }
  uint32_t shard_count() const { return shard_count_; }

  /// Rows in the full point set across all shards (== num_rows() when
  /// shard_count() == 1).
  uint64_t total_rows() const { return points().size(); }
  /// Generator seed (synthetic builds and files built from a seed; 0 for
  /// ingested data).
  uint64_t seed() const { return seed_; }
  /// Where the data came from, for logs: "synthetic seed=S rows=N" or
  /// "file:<path>".
  const std::string& source() const { return source_; }
  /// True when pages are served from an mmap mapping (Load with mmap).
  bool mmap_backed() const { return mmap_backed_; }

  /// The routing box an mdsc coordinator prunes by: the tight bounding box
  /// of this dataset's rows (tree().root().bounds), or nullopt when a row
  /// has a NaN or infinite coordinate (a box full scan counts a NaN row as
  /// inside any box, so no box would bound the answers) or there are no
  /// rows. Checked once, at Build or Load.
  const std::optional<Box>& routing_box() const { return routing_box_; }

  /// Monotonically increasing dataset generation, starting at 1. The
  /// serving layer keys memoized replies by it (server/response_cache.h):
  /// bumping the epoch invalidates every cached reply with one atomic
  /// store, with no per-entry tracking.
  uint64_t epoch() const { return epoch_->load(std::memory_order_acquire); }

  /// Marks the served data as changed (reload, mutation, repaired pages).
  /// Owners call this; the server itself only reads the epoch. Const
  /// because a hot swap publishes the dataset as a shared const snapshot
  /// first and bumps after — the counter is shared state, not dataset
  /// state.
  void BumpEpoch() const { epoch_->fetch_add(1, std::memory_order_acq_rel); }

  /// Continues `prior`'s epoch sequence instead of restarting at 1, so a
  /// hot swap's bump is observable as N -> N+1 against the previous
  /// generation and cached replies keyed by any earlier epoch stay dead.
  void AdoptEpochFrom(const ServedDataset& prior) { epoch_ = prior.epoch_; }

 private:
  ServedDataset() = default;

  // Destruction order (reverse of declaration): table releases before the
  // pool, the pool flushes into the pager, the tree before its points.
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<PointSet> loaded_points_;  // Load path; catalog_ is null
  std::unique_ptr<KdTreeIndex> tree_;
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Table> table_;
  PointTableBinding binding_;
  uint32_t shard_index_ = 0;
  uint32_t shard_count_ = 1;
  uint64_t seed_ = 0;
  std::string source_;
  bool mmap_backed_ = false;
  std::optional<Box> routing_box_;
  // Shared (not unique) so a successor dataset can adopt the counter and
  // the epoch sequence survives hot swaps; heap-allocated so the dataset
  // stays movable (Result<ServedDataset>).
  std::shared_ptr<std::atomic<uint64_t>> epoch_ =
      std::make_shared<std::atomic<uint64_t>>(1);
};

/// Everything `mdsctl build` writes into a dataset file.
struct DatasetFileOptions {
  /// Row count, seed, shard slice and (writer-side) pool size. When
  /// `ingest` is set, num_rows/seed are ignored for generation but the
  /// shard fields still select the slice to materialize.
  DatasetConfig dataset;
  /// Optional index chains over the full point set (the kd-tree is always
  /// written; the server only needs the kd-tree, but shipping grid/Voronoi
  /// chains makes the file a complete release artifact).
  bool include_grid = false;
  bool include_voronoi = false;
  /// Free-form origin recorded in the manifest; synthesized from the
  /// config when empty.
  std::string provenance;
  /// Non-null: persist these points instead of generating a catalog
  /// (offline ingest; must outlive the call).
  const PointSet* ingest = nullptr;
};

/// Reads a CSV of float coordinates for `mdsctl build --csv`: one row per
/// line, comma-separated, '#' comment lines skipped; every row must have
/// the same width. A cell that is not a number, or parses to NaN or
/// +-inf, is InvalidArgument naming its line: such a row lies in no box
/// on any access path, its kNN distances are NaN or infinite, and a shard
/// holding one publishes no routing box (mdsc could never prune it), so
/// such rows never enter a dataset.
Result<PointSet> ReadPointCsv(const std::string& path);

/// Writes a complete dataset file: full point set + full kd-tree chains,
/// the shard slice materialized as a clustered table, optional grid /
/// Voronoi chains, a CRC-protected manifest, and — last, as the commit
/// point — the page-0 superblock. A crash or error at any earlier step
/// leaves a file ReadSuperblock refuses, never a loadable half-build.
/// `path` is created (truncated) via FilePager::Create; callers wanting
/// atomic replacement of an existing file write to a temp name and rename.
Status WriteDatasetFile(const DatasetFileOptions& options,
                        const std::string& path);

}  // namespace mds

#endif  // MDS_SERVER_DATASET_H_
