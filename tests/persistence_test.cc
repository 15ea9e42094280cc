#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "core/index_io.h"
#include "core/knn.h"
#include "core/point_table.h"
#include "core/query_engine.h"
#include "server/dataset.h"
#include "storage/mmap_pager.h"
#include "storage/page_stream.h"
#include "storage/pager.h"

namespace mds {
namespace {

TEST(PageStreamTest, RoundTripSmall) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  PageStreamWriter w(&pool);
  ASSERT_TRUE(w.WriteValue<uint64_t>(0xfeedface).ok());
  ASSERT_TRUE(w.WriteValue<double>(3.25).ok());
  std::vector<int32_t> v = {1, -2, 3};
  ASSERT_TRUE(w.WriteVector(v).ok());
  auto head = w.Finish();
  ASSERT_TRUE(head.ok());

  PageStreamReader r(&pool, *head);
  EXPECT_EQ(*r.ReadValue<uint64_t>(), 0xfeedfaceULL);
  EXPECT_EQ(*r.ReadValue<double>(), 3.25);
  auto back = r.ReadVector<int32_t>();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, v);
  // Reading past the end fails cleanly.
  EXPECT_EQ(r.ReadValue<uint8_t>().status().code(), StatusCode::kOutOfRange);
}

TEST(PageStreamTest, RoundTripMultiPage) {
  MemPager pager;
  BufferPool pool(&pager, 64);
  Rng rng(3);
  std::vector<uint64_t> big(100000);
  for (auto& x : big) x = rng.NextU64();
  PageStreamWriter w(&pool);
  ASSERT_TRUE(w.WriteVector(big).ok());
  auto head = w.Finish();
  ASSERT_TRUE(head.ok());
  // ~800 KB spans ~100 pages; the pool holds 64, so the chain is also
  // exercised through eviction and write-back.
  EXPECT_GT(pager.NumPages(), 50u);

  PageStreamReader r(&pool, *head);
  auto back = r.ReadVector<uint64_t>();
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, big);
}

TEST(PageStreamTest, EmptyStream) {
  MemPager pager;
  BufferPool pool(&pager, 8);
  PageStreamWriter w(&pool);
  auto head = w.Finish();
  ASSERT_TRUE(head.ok());
  PageStreamReader r(&pool, *head);
  EXPECT_EQ(r.ReadValue<uint8_t>().status().code(), StatusCode::kOutOfRange);
}

TEST(PageStreamTest, WriteAfterFinishFails) {
  MemPager pager;
  BufferPool pool(&pager, 8);
  PageStreamWriter w(&pool);
  ASSERT_TRUE(w.WriteValue<int>(1).ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_EQ(w.WriteValue<int>(2).code(), StatusCode::kFailedPrecondition);
}

TEST(PageStreamTest, CorruptVectorLengthRejected) {
  MemPager pager;
  BufferPool pool(&pager, 8);
  PageStreamWriter w(&pool);
  ASSERT_TRUE(w.WriteValue<uint64_t>(~uint64_t{0}).ok());  // absurd length
  auto head = w.Finish();
  ASSERT_TRUE(head.ok());
  PageStreamReader r(&pool, *head);
  EXPECT_EQ(r.ReadVector<uint32_t>().status().code(), StatusCode::kCorruption);
}

PointSet MakePoints(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  PointSet ps(d, 0);
  ps.Reserve(n);
  std::vector<double> p(d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      p[j] = rng.NextDouble() < 0.5 ? 0.4 + 0.05 * rng.NextGaussian()
                                    : rng.NextDouble();
    }
    ps.Append(p.data());
  }
  return ps;
}

TEST(IndexIoTest, KdTreeRoundTrip) {
  PointSet ps = MakePoints(20000, 3, 5);
  MemPager pager;
  BufferPool pool(&pager, 4096);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  auto head = IndexIo::SaveKdTree(&pool, *tree);
  ASSERT_TRUE(head.ok());
  auto loaded = IndexIo::LoadKdTree(&pool, *head, &ps);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->num_leaves(), tree->num_leaves());
  EXPECT_EQ(loaded->num_levels(), tree->num_levels());
  EXPECT_EQ(loaded->clustered_order(), tree->clustered_order());
  // Query equivalence.
  Polyhedron poly = Polyhedron::BallApproximation({0.4, 0.4, 0.4}, 0.2, 12);
  std::vector<uint64_t> a, b;
  tree->QueryPolyhedron(poly, &a);
  loaded->QueryPolyhedron(poly, &b);
  EXPECT_EQ(a, b);
  // k-NN equivalence.
  KdKnnSearcher sa(&*tree), sb(&*loaded);
  double q[3] = {0.41, 0.39, 0.42};
  auto na = sa.BoundaryGrow(q, 10);
  auto nb = sb.BoundaryGrow(q, 10);
  for (size_t i = 0; i < na.size(); ++i) {
    EXPECT_DOUBLE_EQ(na[i].squared_distance, nb[i].squared_distance);
  }
}

TEST(IndexIoTest, LayeredGridRoundTrip) {
  PointSet ps = MakePoints(30000, 3, 7);
  MemPager pager;
  BufferPool pool(&pager, 4096);
  auto grid = LayeredGridIndex::Build(&ps);
  ASSERT_TRUE(grid.ok());
  auto head = IndexIo::SaveLayeredGrid(&pool, *grid);
  ASSERT_TRUE(head.ok());
  auto loaded = IndexIo::LoadLayeredGrid(&pool, *head, &ps);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->num_layers(), grid->num_layers());
  EXPECT_EQ(loaded->clustered_order(), grid->clustered_order());
  Box q({0.3, 0.3, 0.3}, {0.5, 0.5, 0.5});
  std::vector<uint64_t> a, b;
  ASSERT_TRUE(grid->SampleQuery(q, 500, &a).ok());
  ASSERT_TRUE(loaded->SampleQuery(q, 500, &b).ok());
  EXPECT_EQ(a, b);
}

TEST(IndexIoTest, VoronoiRoundTrip) {
  PointSet ps = MakePoints(15000, 3, 9);
  MemPager pager;
  BufferPool pool(&pager, 4096);
  VoronoiIndexConfig config;
  config.num_seeds = 128;
  auto index = VoronoiIndex::Build(&ps, config);
  ASSERT_TRUE(index.ok());
  auto head = IndexIo::SaveVoronoi(&pool, *index);
  ASSERT_TRUE(head.ok());
  auto loaded = IndexIo::LoadVoronoi(&pool, *head, &ps);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->num_seeds(), index->num_seeds());
  EXPECT_EQ(loaded->seed_graph(), index->seed_graph());
  EXPECT_EQ(loaded->clustered_order(), index->clustered_order());
  for (uint64_t i = 0; i < ps.size(); i += 97) {
    EXPECT_EQ(loaded->tag(i), index->tag(i));
  }
  // Walk + exact nearest-seed equivalence.
  double q[3] = {0.5, 0.5, 0.5};
  EXPECT_EQ(loaded->NearestSeed(q), index->NearestSeed(q));
  Polyhedron poly = Polyhedron::BallApproximation({0.4, 0.4, 0.4}, 0.15, 10);
  std::vector<uint64_t> a, b;
  index->QueryPolyhedron(poly, &a);
  loaded->QueryPolyhedron(poly, &b);
  EXPECT_EQ(a, b);
}

TEST(IndexIoTest, WrongMagicRejected) {
  PointSet ps = MakePoints(5000, 3, 11);
  MemPager pager;
  BufferPool pool(&pager, 1024);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  auto head = IndexIo::SaveKdTree(&pool, *tree);
  ASSERT_TRUE(head.ok());
  // Loading a kd-tree chain as a grid must fail on magic.
  EXPECT_EQ(IndexIo::LoadLayeredGrid(&pool, *head, &ps).status().code(),
            StatusCode::kCorruption);
}

TEST(IndexIoTest, MismatchedPointSetRejected) {
  PointSet ps = MakePoints(5000, 3, 13);
  PointSet other = MakePoints(4999, 3, 13);
  MemPager pager;
  BufferPool pool(&pager, 1024);
  auto tree = KdTreeIndex::Build(&ps);
  ASSERT_TRUE(tree.ok());
  auto head = IndexIo::SaveKdTree(&pool, *tree);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(IndexIo::LoadKdTree(&pool, *head, &other).status().code(),
            StatusCode::kInvalidArgument);
}

/// End-to-end persistence: table + index into one FILE, close, reopen,
/// query — the out-of-core database lifecycle.
TEST(IndexIoTest, FilePagerReopenLifecycle) {
  std::string path =
      (std::filesystem::temp_directory_path() / "mds_persist_test.db").string();
  PointSet ps = MakePoints(20000, 3, 17);
  PageId table_first_page;
  PageId index_head;
  uint64_t table_pages;
  {
    auto pager = FilePager::Create(path);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 512);
    auto tree = KdTreeIndex::Build(&ps);
    ASSERT_TRUE(tree.ok());
    auto table =
        MaterializePointTable(&pool, ps, tree->clustered_order());
    ASSERT_TRUE(table.ok());
    table_pages = table->num_pages();
    table_first_page = 0;  // tables allocate from page 0 here
    auto head = IndexIo::SaveKdTree(&pool, *tree);
    ASSERT_TRUE(head.ok());
    index_head = *head;
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  // Reopen the file cold.
  {
    auto pager = FilePager::Open(path);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 512);
    auto loaded = IndexIo::LoadKdTree(&pool, index_head, &ps);
    ASSERT_TRUE(loaded.ok());
    // Rebind the table: the schema is known, pages 0..table_pages-1.
    auto table = Table::Create(&pool, PointTableSchema(3));
    ASSERT_TRUE(table.ok());
    // Instead of poking table internals, verify via the index alone:
    Polyhedron poly =
        Polyhedron::BallApproximation({0.4, 0.4, 0.4}, 0.1, 12);
    std::vector<uint64_t> got;
    loaded->QueryPolyhedron(poly, &got);
    std::vector<uint64_t> expect;
    for (uint64_t i = 0; i < ps.size(); ++i) {
      if (poly.Contains(ps.point(i))) expect.push_back(i);
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expect);
    (void)table_pages;
    (void)table_first_page;
  }
  std::remove(path.c_str());
}

// --- dataset manifest + file lifecycle --------------------------------------

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(DatasetManifestTest, RoundTrip) {
  MemPager pager;
  BufferPool pool(&pager, 64);
  DatasetManifest manifest;
  manifest.dim = 5;
  manifest.table_rows = 1234;
  manifest.total_rows = 4321;
  manifest.seed = 99;
  manifest.provenance = "synthetic seed=99 rows=4321";
  manifest.shard_index = 1;
  manifest.shard_count = 4;
  manifest.table_pages = {7, 8, 9};
  manifest.points_head = 42;
  manifest.kdtree_head = 43;
  auto head = IndexIo::SaveManifest(&pool, manifest);
  ASSERT_TRUE(head.ok());
  auto back = IndexIo::LoadManifest(&pool, *head);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->version, DatasetManifest::kVersion);
  EXPECT_EQ(back->dim, manifest.dim);
  EXPECT_EQ(back->table_rows, manifest.table_rows);
  EXPECT_EQ(back->total_rows, manifest.total_rows);
  EXPECT_EQ(back->seed, manifest.seed);
  EXPECT_EQ(back->provenance, manifest.provenance);
  EXPECT_EQ(back->shard_index, manifest.shard_index);
  EXPECT_EQ(back->shard_count, manifest.shard_count);
  EXPECT_EQ(back->table_pages, manifest.table_pages);
  EXPECT_EQ(back->points_head, manifest.points_head);
  EXPECT_EQ(back->kdtree_head, manifest.kdtree_head);
  EXPECT_EQ(back->grid_head, kInvalidPageId);
  EXPECT_EQ(back->voronoi_head, kInvalidPageId);
}

TEST(DatasetManifestTest, PointSetRoundTrip) {
  PointSet ps = MakePoints(5000, 4, 21);
  MemPager pager;
  BufferPool pool(&pager, 256);
  auto head = IndexIo::SavePointSet(&pool, ps);
  ASSERT_TRUE(head.ok());
  auto back = IndexIo::LoadPointSet(&pool, *head);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->dim(), ps.dim());
  EXPECT_EQ(back->size(), ps.size());
  EXPECT_EQ(back->raw(), ps.raw());
}

TEST(DatasetManifestTest, SuperblockRefusals) {
  // An empty pager is not a dataset file.
  {
    MemPager pager;
    BufferPool pool(&pager, 8);
    EXPECT_EQ(IndexIo::ReadSuperblock(&pool).status().code(),
              StatusCode::kCorruption);
  }
  // A page-0 blob that is not a superblock fails on magic, and a damaged
  // superblock fails on CRC.
  {
    MemPager pager;
    BufferPool pool(&pager, 8);
    auto zero = pool.Allocate();
    ASSERT_TRUE(zero.ok());
    ASSERT_EQ(zero->id(), 0u);
    zero->Release();
    EXPECT_EQ(IndexIo::ReadSuperblock(&pool).status().code(),
              StatusCode::kCorruption);
    ASSERT_TRUE(IndexIo::WriteSuperblock(&pool, 3).ok());
    auto head = IndexIo::ReadSuperblock(&pool);
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(*head, 3u);
    auto guard = pool.Fetch(0);
    ASSERT_TRUE(guard.ok());
    guard->MutablePage().WriteAt<uint64_t>(16, 12345);  // flip manifest_head
    guard->Release();
    ASSERT_TRUE(pool.FlushAll().ok());
    EXPECT_EQ(IndexIo::ReadSuperblock(&pool).status().code(),
              StatusCode::kCorruption);
  }
}

TEST(DatasetFileTest, BuildLoadRoundTrip) {
  const std::string path = TempPath("mds_dataset_roundtrip.mds");
  DatasetFileOptions options;
  options.dataset.num_rows = 20000;
  options.dataset.seed = 7;
  ASSERT_TRUE(WriteDatasetFile(options, path).ok());

  auto loaded = ServedDataset::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto built = ServedDataset::Build(options.dataset);
  ASSERT_TRUE(built.ok());

  EXPECT_EQ(loaded->dim(), built->dim());
  EXPECT_EQ(loaded->num_rows(), built->num_rows());
  EXPECT_EQ(loaded->seed(), 7u);
  EXPECT_EQ(loaded->total_rows(), 20000u);
  // Same generation seed => identical points and identical clustering.
  EXPECT_EQ(loaded->points().raw(), built->points().raw());
  EXPECT_EQ(loaded->tree().clustered_order(),
            built->tree().clustered_order());
}

TEST(DatasetFileTest, ShardSlicedRoundTrip) {
  DatasetFileOptions options;
  options.dataset.num_rows = 16000;
  options.dataset.seed = 11;
  options.dataset.shard_count = 2;

  uint64_t shard_rows_total = 0;
  for (uint32_t s = 0; s < 2; ++s) {
    const std::string path =
        TempPath(("mds_dataset_shard" + std::to_string(s) + ".mds").c_str());
    options.dataset.shard_index = s;
    ASSERT_TRUE(WriteDatasetFile(options, path).ok());
    auto loaded = ServedDataset::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->shard_index(), s);
    EXPECT_EQ(loaded->shard_count(), 2u);
    EXPECT_LT(loaded->num_rows(), 16000u);
    EXPECT_EQ(loaded->total_rows(), 16000u);

    // The loaded shard serves exactly the rows the in-memory shard build
    // serves.
    DatasetConfig build = options.dataset;
    auto built = ServedDataset::Build(build);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(loaded->num_rows(), built->num_rows());
    EXPECT_EQ(loaded->tree().clustered_order(),
              built->tree().clustered_order());
    shard_rows_total += loaded->num_rows();
    std::remove(path.c_str());
  }
  EXPECT_EQ(shard_rows_total, 16000u);
}

TEST(DatasetFileTest, CorruptManifestRefused) {
  const std::string path = TempPath("mds_dataset_corrupt.mds");
  DatasetFileOptions options;
  options.dataset.num_rows = 8000;
  options.dataset.seed = 3;
  ASSERT_TRUE(WriteDatasetFile(options, path).ok());
  auto head = [&] {
    auto pager = FilePager::Open(path);
    EXPECT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 64);
    auto h = IndexIo::ReadSuperblock(&pool);
    EXPECT_TRUE(h.ok());
    return *h;
  }();

  // Flip one byte inside the manifest page's payload: the page CRC (or,
  // if the page were rewritten, the manifest blob CRC) must refuse it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(head * kPageSize + 64));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(head * kPageSize + 64));
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  auto loaded = ServedDataset::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(DatasetFileTest, TruncatedFileRefused) {
  const std::string path = TempPath("mds_dataset_truncated.mds");
  DatasetFileOptions options;
  options.dataset.num_rows = 8000;
  options.dataset.seed = 3;
  ASSERT_TRUE(WriteDatasetFile(options, path).ok());

  // Chop the file to its first page: the superblock survives but every
  // chain head points past the end.
  std::filesystem::resize_file(path, kPageSize);
  auto loaded = ServedDataset::Load(path);
  ASSERT_FALSE(loaded.ok());

  // A torn (non-page-multiple) file is refused outright.
  std::filesystem::resize_file(path, kPageSize / 2);
  EXPECT_FALSE(MmapPager::Open(path).ok());
  EXPECT_FALSE(ServedDataset::Load(path).ok());
  std::remove(path.c_str());
}

TEST(DatasetFileTest, MmapPagerMatchesFilePager) {
  const std::string path = TempPath("mds_dataset_mmap.mds");
  DatasetFileOptions options;
  options.dataset.num_rows = 10000;
  options.dataset.seed = 23;
  ASSERT_TRUE(WriteDatasetFile(options, path).ok());

  ServedDataset::LoadOptions mmap_opts;
  auto via_mmap = ServedDataset::Load(path, mmap_opts);
  ASSERT_TRUE(via_mmap.ok()) << via_mmap.status().ToString();
  EXPECT_TRUE(via_mmap->mmap_backed());

  ServedDataset::LoadOptions file_opts;
  file_opts.prefer_mmap = false;
  auto via_file = ServedDataset::Load(path, file_opts);
  ASSERT_TRUE(via_file.ok());
  EXPECT_FALSE(via_file->mmap_backed());

  EXPECT_EQ(via_mmap->points().raw(), via_file->points().raw());
  EXPECT_EQ(via_mmap->tree().clustered_order(),
            via_file->tree().clustered_order());
  std::remove(path.c_str());
}

TEST(DatasetFileTest, IngestedPointsRoundTrip) {
  const std::string path = TempPath("mds_dataset_ingest.mds");
  PointSet ps = MakePoints(6000, 3, 31);
  DatasetFileOptions options;
  options.ingest = &ps;
  options.provenance = "unit-test ingest";
  ASSERT_TRUE(WriteDatasetFile(options, path).ok());
  auto loaded = ServedDataset::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dim(), 3u);
  EXPECT_EQ(loaded->num_rows(), 6000u);
  EXPECT_EQ(loaded->points().raw(), ps.raw());
  std::remove(path.c_str());
}

/// Writes `body` to a temp file and parses it with ReadPointCsv.
Result<PointSet> ParseCsv(const char* name, const std::string& body) {
  const std::string path = TempPath(name);
  {
    std::ofstream out(path);
    out << body;
  }
  Result<PointSet> parsed = ReadPointCsv(path);
  std::remove(path.c_str());
  return parsed;
}

TEST(ReadPointCsvTest, ParsesRowsAndSkipsComments) {
  auto parsed = ParseCsv("mds_csv_ok.csv",
                         "# ra,dec,z\n1.5,-2,3e2\n\n0,0.25,-0\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->dim(), 3u);
  EXPECT_EQ(parsed->raw(),
            (std::vector<float>{1.5f, -2.0f, 300.0f, 0.0f, 0.25f, -0.0f}));
}

TEST(ReadPointCsvTest, RejectsNonFiniteCellsNamingTheLine) {
  // stof parses all of these; a box answer over such a row would depend
  // on the access path, so ingest refuses them.
  for (const char* cell : {"nan", "NaN", "-nan", "inf", "-inf", "INF",
                           "infinity", "-Infinity"}) {
    auto parsed = ParseCsv("mds_csv_nonfinite.csv",
                           std::string("1,2\n3,4\n5,") + cell + "\n");
    ASSERT_FALSE(parsed.ok()) << cell;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << cell;
    EXPECT_NE(parsed.status().message().find("csv line 3"),
              std::string::npos)
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().message().find(cell), std::string::npos)
        << parsed.status().ToString();
  }
}

TEST(ReadPointCsvTest, RejectsMalformedInput) {
  auto word = ParseCsv("mds_csv_word.csv", "1,2\nx,2\n");
  ASSERT_FALSE(word.ok());
  EXPECT_EQ(word.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(word.status().message().find("csv line 2"), std::string::npos);

  auto ragged = ParseCsv("mds_csv_ragged.csv", "1,2\n1,2,3\n");
  ASSERT_FALSE(ragged.ok());
  EXPECT_EQ(ragged.status().code(), StatusCode::kInvalidArgument);

  auto empty = ParseCsv("mds_csv_empty.csv", "# header only\n");
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  auto missing = ReadPointCsv(TempPath("mds_csv_missing.csv"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace mds
