#include "server/dataset.h"

#include <cmath>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "storage/mmap_pager.h"

namespace mds {

namespace {

std::string BuildContext(const DatasetConfig& config) {
  return "ServedDataset::Build(rows=" + std::to_string(config.num_rows) +
         ", seed=" + std::to_string(config.seed) +
         ", shard=" + std::to_string(config.shard_index) + "/" +
         std::to_string(config.shard_count) + ")";
}

std::string LoadContext(const std::string& path) {
  return "ServedDataset::Load('" + path + "')";
}

/// Validates a shard slice against the full tree and returns the heap
/// index of the shard's subtree root (the shard_index-th node of level
/// log2(shard_count)). Shared by Build, Load and WriteDatasetFile so all
/// three agree on which rows a shard serves.
Result<uint32_t> ShardSubtreeNode(const KdTreeIndex& tree,
                                  uint32_t shard_index, uint32_t shard_count) {
  if ((shard_count & (shard_count - 1)) != 0) {
    return Status::InvalidArgument("shard_count " +
                                   std::to_string(shard_count) +
                                   " is not a power of two");
  }
  if (shard_index >= shard_count) {
    return Status::InvalidArgument(
        "shard_index " + std::to_string(shard_index) +
        " out of range for shard_count " + std::to_string(shard_count));
  }
  if (shard_count > tree.num_leaves()) {
    return Status::InvalidArgument(
        "shard_count " + std::to_string(shard_count) + " exceeds " +
        std::to_string(tree.num_leaves()) + " tree leaves");
  }
  uint32_t level = 0;
  while ((1u << level) < shard_count) ++level;
  return (1u << level) - 1 + shard_index;
}

/// The dataset's routing box: its tree's tight root bounds when every
/// coordinate of every row the tree covers is finite.
std::optional<Box> RoutingBoxOf(const KdTreeIndex& tree,
                                const PointSet& points) {
  if (tree.num_points() == 0) return std::nullopt;
  for (uint64_t id : tree.clustered_order()) {
    const float* p = points.point(id);
    for (size_t j = 0; j < points.dim(); ++j) {
      if (!std::isfinite(p[j])) return std::nullopt;
    }
  }
  return tree.root().bounds;
}

}  // namespace

Result<ServedDataset> ServedDataset::Build(const DatasetConfig& config) {
  ServedDataset ds;

  CatalogConfig catalog_config;
  catalog_config.num_objects = config.num_rows;
  catalog_config.seed = config.seed;
  ds.catalog_ = std::make_unique<Catalog>(GenerateCatalog(catalog_config));

  auto tree = KdTreeIndex::Build(&ds.catalog_->colors);
  if (!tree.ok()) return AnnotateStatus(tree.status(), BuildContext(config));

  if (config.shard_count > 1) {
    auto node =
        ShardSubtreeNode(*tree, config.shard_index, config.shard_count);
    if (!node.ok()) return AnnotateStatus(node.status(), BuildContext(config));
    auto sub = KdTreeIndex::ExtractSubtree(*tree, *node);
    if (!sub.ok()) return AnnotateStatus(sub.status(), BuildContext(config));
    ds.tree_ = std::make_unique<KdTreeIndex>(std::move(*sub));
    ds.shard_index_ = config.shard_index;
    ds.shard_count_ = config.shard_count;
  } else {
    ds.tree_ = std::make_unique<KdTreeIndex>(std::move(*tree));
  }

  ds.pager_ = std::make_unique<MemPager>();
  ds.pool_ = std::make_unique<BufferPool>(ds.pager_.get(), config.pool_pages);
  auto table = MaterializePointTable(ds.pool_.get(), ds.catalog_->colors,
                                     ds.tree_->clustered_order());
  if (!table.ok()) return AnnotateStatus(table.status(), BuildContext(config));
  ds.table_ = std::make_unique<Table>(std::move(*table));
  ds.binding_ = BindPointTable(ds.table_.get(), kNumBands);
  ds.seed_ = config.seed;
  ds.source_ = "synthetic seed=" + std::to_string(config.seed) +
               " rows=" + std::to_string(config.num_rows);
  ds.routing_box_ = RoutingBoxOf(*ds.tree_, ds.points());
  return ds;
}

Result<ServedDataset> ServedDataset::Load(const std::string& path) {
  return Load(path, LoadOptions{});
}

Result<ServedDataset> ServedDataset::Load(const std::string& path,
                                          const LoadOptions& options) {
  ServedDataset ds;

  if (options.prefer_mmap) {
    auto mapped = MmapPager::Open(path);
    if (mapped.ok()) {
      ds.pager_ = std::move(*mapped);
      ds.mmap_backed_ = true;
    }
    // Any mmap failure falls through to FilePager, which re-runs the same
    // existence/size validation and reports its own (equivalent) error.
  }
  if (ds.pager_ == nullptr) {
    auto file = FilePager::Open(path);
    if (!file.ok()) return AnnotateStatus(file.status(), LoadContext(path));
    ds.pager_ = std::move(*file);
  }
  ds.pool_ = std::make_unique<BufferPool>(ds.pager_.get(), options.pool_pages);

  auto head = IndexIo::ReadSuperblock(ds.pool_.get());
  if (!head.ok()) return AnnotateStatus(head.status(), LoadContext(path));
  auto manifest = IndexIo::LoadManifest(ds.pool_.get(), *head);
  if (!manifest.ok()) {
    return AnnotateStatus(manifest.status(), LoadContext(path));
  }

  auto points = IndexIo::LoadPointSet(ds.pool_.get(), manifest->points_head);
  if (!points.ok()) return AnnotateStatus(points.status(), LoadContext(path));
  if (points->dim() != manifest->dim ||
      points->size() != manifest->total_rows) {
    return Status::Corruption(
        LoadContext(path) + ": point set (dim=" +
        std::to_string(points->dim()) + ", rows=" +
        std::to_string(points->size()) + ") does not match manifest (dim=" +
        std::to_string(manifest->dim) + ", rows=" +
        std::to_string(manifest->total_rows) + ")");
  }
  ds.loaded_points_ = std::make_unique<PointSet>(std::move(*points));

  auto tree = IndexIo::LoadKdTree(ds.pool_.get(), manifest->kdtree_head,
                                  ds.loaded_points_.get());
  if (!tree.ok()) return AnnotateStatus(tree.status(), LoadContext(path));

  if (manifest->shard_count > 1) {
    auto node =
        ShardSubtreeNode(*tree, manifest->shard_index, manifest->shard_count);
    if (!node.ok()) return AnnotateStatus(node.status(), LoadContext(path));
    auto sub = KdTreeIndex::ExtractSubtree(*tree, *node);
    if (!sub.ok()) return AnnotateStatus(sub.status(), LoadContext(path));
    ds.tree_ = std::make_unique<KdTreeIndex>(std::move(*sub));
  } else {
    ds.tree_ = std::make_unique<KdTreeIndex>(std::move(*tree));
  }
  ds.shard_index_ = manifest->shard_index;
  ds.shard_count_ = manifest->shard_count;

  if (ds.tree_->num_points() != manifest->table_rows) {
    return Status::Corruption(
        LoadContext(path) + ": stored table has " +
        std::to_string(manifest->table_rows) +
        " rows but the shard subtree covers " +
        std::to_string(ds.tree_->num_points()));
  }

  auto table = Table::Attach(ds.pool_.get(), PointTableSchema(manifest->dim),
                             manifest->table_pages, manifest->table_rows);
  if (!table.ok()) return AnnotateStatus(table.status(), LoadContext(path));
  ds.table_ = std::make_unique<Table>(std::move(*table));
  ds.binding_ = BindPointTable(ds.table_.get(), manifest->dim);
  ds.seed_ = manifest->seed;
  ds.source_ = "file:" + path;
  ds.routing_box_ = RoutingBoxOf(*ds.tree_, ds.points());
  return ds;
}

Result<PointSet> ReadPointCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open csv file '" + path + "'");
  }
  PointSet points(0, 0);
  size_t dim = 0;
  std::string line;
  size_t line_no = 0;
  std::vector<float> row;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    row.clear();
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      float v;
      try {
        v = std::stof(cell);
      } catch (...) {
        return Status::InvalidArgument("csv line " + std::to_string(line_no) +
                                       ": not a number: '" + cell + "'");
      }
      if (!std::isfinite(v)) {
        return Status::InvalidArgument("csv line " + std::to_string(line_no) +
                                       ": not a finite number: '" + cell +
                                       "'");
      }
      row.push_back(v);
    }
    if (row.empty()) continue;
    if (dim == 0) {
      dim = row.size();
      points = PointSet(dim, 0);
    } else if (row.size() != dim) {
      return Status::InvalidArgument(
          "csv line " + std::to_string(line_no) + " has " +
          std::to_string(row.size()) + " columns, expected " +
          std::to_string(dim));
    }
    points.Append(row.data());
  }
  if (points.size() == 0) {
    return Status::InvalidArgument("csv file '" + path + "' holds no rows");
  }
  return points;
}

Status WriteDatasetFile(const DatasetFileOptions& options,
                        const std::string& path) {
  const DatasetConfig& config = options.dataset;
  const std::string context = "WriteDatasetFile('" + path + "')";

  auto pager = FilePager::Create(path);
  if (!pager.ok()) return AnnotateStatus(pager.status(), context);
  BufferPool pool(pager->get(), config.pool_pages);

  // Reserve page 0 for the superblock before any chain allocates a page:
  // WriteSuperblock stamps it last, as the commit point.
  {
    auto zero = pool.Allocate();
    if (!zero.ok()) return AnnotateStatus(zero.status(), context);
    if (zero->id() != 0) {
      return Status::Internal(context + ": superblock page was not page 0");
    }
  }

  DatasetManifest manifest;
  Catalog catalog;  // keeps generated points alive through the writes
  const PointSet* points = options.ingest;
  if (points == nullptr) {
    CatalogConfig catalog_config;
    catalog_config.num_objects = config.num_rows;
    catalog_config.seed = config.seed;
    catalog = GenerateCatalog(catalog_config);
    points = &catalog.colors;
    manifest.seed = config.seed;
  }
  if (points->size() == 0 || points->dim() == 0) {
    return Status::InvalidArgument(context + ": empty point set");
  }

  auto tree = KdTreeIndex::Build(points);
  if (!tree.ok()) return AnnotateStatus(tree.status(), context);

  const uint32_t shard_count = config.shard_count == 0 ? 1 : config.shard_count;
  std::optional<KdTreeIndex> shard_tree;
  if (shard_count > 1) {
    auto node = ShardSubtreeNode(*tree, config.shard_index, shard_count);
    if (!node.ok()) return AnnotateStatus(node.status(), context);
    auto sub = KdTreeIndex::ExtractSubtree(*tree, *node);
    if (!sub.ok()) return AnnotateStatus(sub.status(), context);
    shard_tree.emplace(std::move(*sub));
    manifest.shard_index = config.shard_index;
    manifest.shard_count = shard_count;
  }
  const std::vector<uint64_t>& order =
      shard_tree ? shard_tree->clustered_order() : tree->clustered_order();

  auto table = MaterializePointTable(&pool, *points, order);
  if (!table.ok()) return AnnotateStatus(table.status(), context);

  manifest.dim = static_cast<uint32_t>(points->dim());
  manifest.table_rows = table->num_rows();
  manifest.total_rows = points->size();
  manifest.provenance =
      !options.provenance.empty() ? options.provenance
      : options.ingest != nullptr
          ? "ingested rows=" + std::to_string(points->size())
          : "synthetic seed=" + std::to_string(config.seed) +
                " rows=" + std::to_string(config.num_rows);
  for (uint64_t i = 0; i < table->num_pages(); ++i) {
    manifest.table_pages.push_back(table->page_id(i));
  }

  auto points_head = IndexIo::SavePointSet(&pool, *points);
  if (!points_head.ok()) return AnnotateStatus(points_head.status(), context);
  manifest.points_head = *points_head;

  // The FULL tree is persisted (LoadKdTree validates against the full
  // point set); Load re-extracts the shard subtree.
  auto kd_head = IndexIo::SaveKdTree(&pool, *tree);
  if (!kd_head.ok()) return AnnotateStatus(kd_head.status(), context);
  manifest.kdtree_head = *kd_head;

  if (options.include_grid) {
    auto grid = LayeredGridIndex::Build(points);
    if (!grid.ok()) return AnnotateStatus(grid.status(), context);
    auto grid_head = IndexIo::SaveLayeredGrid(&pool, *grid);
    if (!grid_head.ok()) return AnnotateStatus(grid_head.status(), context);
    manifest.grid_head = *grid_head;
  }
  if (options.include_voronoi) {
    auto voronoi = VoronoiIndex::Build(points);
    if (!voronoi.ok()) return AnnotateStatus(voronoi.status(), context);
    auto voronoi_head = IndexIo::SaveVoronoi(&pool, *voronoi);
    if (!voronoi_head.ok()) {
      return AnnotateStatus(voronoi_head.status(), context);
    }
    manifest.voronoi_head = *voronoi_head;
  }

  auto manifest_head = IndexIo::SaveManifest(&pool, manifest);
  if (!manifest_head.ok()) {
    return AnnotateStatus(manifest_head.status(), context);
  }
  Status stamped = IndexIo::WriteSuperblock(&pool, *manifest_head);
  if (!stamped.ok()) return AnnotateStatus(stamped, context);
  return AnnotateStatus((*pager)->Sync(), context);
}

}  // namespace mds
