#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/clustered_index.h"
#include "storage/pager.h"
#include "storage/table.h"
#include "storage/table_sample.h"

namespace mds {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(FilePagerTest, WriteReadRoundTrip) {
  std::string path = TempPath("mds_pager_test.db");
  auto pager = FilePager::Create(path);
  ASSERT_TRUE(pager.ok());
  Page out;
  for (size_t i = 0; i < kPageSize; ++i) {
    out.bytes()[i] = static_cast<uint8_t>(i * 7);
  }
  auto id = (*pager)->AllocatePage();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*pager)->WritePage(*id, out).ok());
  ASSERT_TRUE((*pager)->Sync().ok());

  // Reopen and verify.
  auto reopened = FilePager::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->NumPages(), 1u);
  Page in;
  ASSERT_TRUE((*reopened)->ReadPage(*id, &in).ok());
  EXPECT_EQ(std::memcmp(in.bytes(), out.bytes(), kPageSize), 0);
  std::remove(path.c_str());
}

TEST(FilePagerTest, ReadBeyondEndFails) {
  auto pager = FilePager::Create(TempPath("mds_pager_oob.db"));
  ASSERT_TRUE(pager.ok());
  Page page;
  EXPECT_EQ((*pager)->ReadPage(0, &page).code(), StatusCode::kOutOfRange);
}

TEST(FilePagerTest, OpenMissingFileFails) {
  auto pager = FilePager::Open(TempPath("mds_definitely_missing.db"));
  EXPECT_EQ(pager.status().code(), StatusCode::kIOError);
}

TEST(MemPagerTest, Basics) {
  MemPager pager;
  auto id = pager.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page page;
  page.WriteAt<uint64_t>(0, 0xdeadbeef);
  ASSERT_TRUE(pager.WritePage(*id, page).ok());
  Page readback;
  ASSERT_TRUE(pager.ReadPage(*id, &readback).ok());
  EXPECT_EQ(readback.ReadAt<uint64_t>(0), 0xdeadbeefULL);
  EXPECT_EQ(pager.ReadPage(99, &readback).code(), StatusCode::kOutOfRange);
}

TEST(FaultInjectionPagerTest, FailsAfterBudget) {
  MemPager base;
  FaultConfig budget;
  budget.fail_after = 2;
  FaultInjectionPager pager(&base, budget);
  Page page;
  auto a = pager.AllocatePage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(pager.ReadPage(*a, &page).ok());
  EXPECT_EQ(pager.ReadPage(*a, &page).code(), StatusCode::kIOError);
  pager.Reset(1);
  EXPECT_TRUE(pager.ReadPage(*a, &page).ok());
  EXPECT_EQ(pager.Sync().code(), StatusCode::kIOError);
}

TEST(BufferPoolTest, CachesPages) {
  MemPager pager;
  BufferPool pool(&pager, 4);
  auto guard = pool.Allocate();
  ASSERT_TRUE(guard.ok());
  PageId id = guard->id();
  guard->MutablePage().WriteAt<uint32_t>(0, 1234);
  guard->Release();
  // First fetch hits the pool (page still resident).
  auto again = pool.Fetch(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->page().ReadAt<uint32_t>(0), 1234u);
  EXPECT_EQ(pool.stats().physical_reads, 0u);
}

TEST(BufferPoolTest, EvictsLruAndWritesBack) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  std::vector<PageId> ids;
  for (uint32_t i = 0; i < 3; ++i) {
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    guard->MutablePage().WriteAt<uint32_t>(0, 100 + i);
    ids.push_back(guard->id());
  }
  // Capacity 2, 3 pages allocated: at least one eviction with write-back.
  EXPECT_GE(pool.stats().evictions, 1u);
  // All pages still readable with their data (from pool or pager).
  for (uint32_t i = 0; i < 3; ++i) {
    auto guard = pool.Fetch(ids[i]);
    ASSERT_TRUE(guard.ok());
    EXPECT_EQ(guard->page().ReadAt<uint32_t>(0), 100 + i);
  }
}

TEST(BufferPoolTest, LruOrderEviction) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  PageId a, b;
  {
    auto ga = pool.Allocate();
    a = ga->id();
  }
  {
    auto gb = pool.Allocate();
    b = gb->id();
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  // Touch a so b is least recently used.
  { auto ga = pool.Fetch(a); }
  pool.ResetStats();
  // A third page evicts b (LRU), so fetching a is still a hit...
  { auto gc = pool.Allocate(); }
  { auto ga = pool.Fetch(a); }
  EXPECT_EQ(pool.stats().physical_reads, 0u);
  // ...and fetching b is a miss.
  { auto gb = pool.Fetch(b); }
  EXPECT_EQ(pool.stats().physical_reads, 1u);
}

TEST(BufferPoolTest, AllPinnedExhausts) {
  MemPager pager;
  BufferPool pool(&pager, 2);
  auto g1 = pool.Allocate();
  auto g2 = pool.Allocate();
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  auto g3 = pool.Allocate();
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, HitRate) {
  MemPager pager;
  BufferPool pool(&pager, 1);
  PageId a, b;
  {
    auto g = pool.Allocate();
    a = g->id();
  }
  {
    auto g = pool.Allocate();
    b = g->id();
  }
  pool.ResetStats();
  { auto g = pool.Fetch(a); }  // miss (b resident)
  { auto g = pool.Fetch(a); }  // hit
  { auto g = pool.Fetch(b); }  // miss
  EXPECT_EQ(pool.stats().logical_reads, 3u);
  EXPECT_EQ(pool.stats().physical_reads, 2u);
  EXPECT_NEAR(pool.stats().HitRate(), 1.0 / 3.0, 1e-12);
}

Schema TestSchema() {
  return Schema({{"id", ColumnType::kInt64, 0},
                 {"x", ColumnType::kFloat32, 0},
                 {"y", ColumnType::kFloat64, 0}});
}

TEST(TableTest, AppendScanRead) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  RowBuilder row(&table->schema());
  const uint64_t n = 5000;  // spans multiple pages
  for (uint64_t i = 0; i < n; ++i) {
    row.SetInt64(0, static_cast<int64_t>(i));
    row.SetFloat32(1, static_cast<float>(i) * 0.5f);
    row.SetFloat64(2, static_cast<double>(i) * 2.0);
    ASSERT_TRUE(table->Append(row).ok());
  }
  EXPECT_EQ(table->num_rows(), n);
  EXPECT_GT(table->num_pages(), 1u);

  uint64_t visited = 0;
  ASSERT_TRUE(table
                  ->Scan([&](uint64_t row_id, RowRef ref) {
                    EXPECT_EQ(ref.GetInt64(0), static_cast<int64_t>(row_id));
                    EXPECT_FLOAT_EQ(ref.GetFloat32(1), row_id * 0.5f);
                    EXPECT_DOUBLE_EQ(ref.GetFloat64(2), row_id * 2.0);
                    ++visited;
                  })
                  .ok());
  EXPECT_EQ(visited, n);

  std::vector<uint8_t> buf(table->schema().row_size());
  ASSERT_TRUE(table->ReadRow(1234, buf.data()).ok());
  RowRef ref(&table->schema(), buf.data());
  EXPECT_EQ(ref.GetInt64(0), 1234);
}

TEST(TableTest, ScanRangeAndEarlyStop) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  RowBuilder row(&table->schema());
  for (uint64_t i = 0; i < 1000; ++i) {
    row.SetInt64(0, static_cast<int64_t>(i));
    ASSERT_TRUE(table->Append(row).ok());
  }
  std::vector<int64_t> seen;
  ASSERT_TRUE(
      table->ScanRange(100, 110, [&](uint64_t, RowRef ref) {
        seen.push_back(ref.GetInt64(0));
      }).ok());
  EXPECT_EQ(seen.size(), 10u);
  EXPECT_EQ(seen.front(), 100);
  EXPECT_EQ(seen.back(), 109);

  // Early stop via bool return.
  uint64_t count = 0;
  ASSERT_TRUE(table
                  ->Scan([&](uint64_t, RowRef) -> bool {
                    ++count;
                    return count < 5;
                  })
                  .ok());
  EXPECT_EQ(count, 5u);

  EXPECT_EQ(table->ScanRange(5, 2000, [](uint64_t, RowRef) {}).code(),
            StatusCode::kOutOfRange);
}

TEST(TableTest, RowTooLargeRejected) {
  MemPager pager;
  BufferPool pool(&pager, 4);
  auto table = Table::Create(
      &pool, Schema({{"blob", ColumnType::kBytes, kPageSize + 1}}));
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, IoErrorPropagates) {
  MemPager base;
  FaultConfig budget;
  budget.fail_after = 1000000;
  FaultInjectionPager faulty(&base, budget);
  BufferPool pool(&faulty, 4);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  RowBuilder row(&table->schema());
  for (uint64_t i = 0; i < 2000; ++i) {
    row.SetInt64(0, static_cast<int64_t>(i));
    ASSERT_TRUE(table->Append(row).ok());
  }
  ASSERT_TRUE(pool.FlushAll().ok());
  faulty.Reset(0);  // every further pager op fails
  // Force physical reads by using a tiny second pool... the resident pages
  // make reads hits, so instead scan after evicting: create a fresh pool
  // over the same pager is not possible (page ids live in table). Instead
  // verify FlushAll error propagation with dirtied pages.
  RowBuilder row2(&table->schema());
  row2.SetInt64(0, 777);
  Status append_status = Status::OK();
  for (int i = 0; i < 5000 && append_status.ok(); ++i) {
    append_status = table->Append(row2);
  }
  EXPECT_FALSE(append_status.ok());
  EXPECT_EQ(append_status.code(), StatusCode::kIOError);
}

TEST(ClusteredKeyIndexTest, RangeScans) {
  MemPager pager;
  BufferPool pool(&pager, 64);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  RowBuilder row(&table->schema());
  // Keys 0,0,1,1,2,2,... (duplicates) over multiple pages.
  const uint64_t n = 4000;
  for (uint64_t i = 0; i < n; ++i) {
    row.SetInt64(0, static_cast<int64_t>(i / 2));
    row.SetFloat32(1, static_cast<float>(i));
    ASSERT_TRUE(table->Append(row).ok());
  }
  auto index = ClusteredKeyIndex::Build(&*table, 0);
  ASSERT_TRUE(index.ok());

  std::vector<int64_t> keys;
  ASSERT_TRUE(index
                  ->ScanKeyRange(10, 12,
                                 [&](uint64_t, RowRef ref) {
                                   keys.push_back(ref.GetInt64(0));
                                 })
                  .ok());
  EXPECT_EQ(keys.size(), 6u);
  for (int64_t k : keys) {
    EXPECT_GE(k, 10);
    EXPECT_LE(k, 12);
  }

  auto range = index->EqualRange(10, 12);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->second - range->first, 6u);
  EXPECT_EQ(range->first, 20u);

  // Empty range.
  auto empty = index->EqualRange(99999, 100000);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->first, empty->second);
}

TEST(ClusteredKeyIndexTest, ScanTouchesFewPages) {
  MemPager pager;
  BufferPool pool(&pager, 256);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  RowBuilder row(&table->schema());
  const uint64_t n = 50000;
  for (uint64_t i = 0; i < n; ++i) {
    row.SetInt64(0, static_cast<int64_t>(i));
    ASSERT_TRUE(table->Append(row).ok());
  }
  auto index = ClusteredKeyIndex::Build(&*table, 0);
  ASSERT_TRUE(index.ok());
  pool.ResetStats();
  uint64_t count = 0;
  ASSERT_TRUE(
      index->ScanKeyRange(1000, 1010, [&](uint64_t, RowRef) { ++count; })
          .ok());
  EXPECT_EQ(count, 11u);
  // A narrow key range in a 100+-page table touches only a couple pages.
  EXPECT_LE(pool.stats().logical_reads, 3u);
}

TEST(ClusteredKeyIndexTest, RejectsUnsortedTable) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  RowBuilder row(&table->schema());
  for (int64_t key : {5, 3, 8}) {
    row.SetInt64(0, key);
    ASSERT_TRUE(table->Append(row).ok());
  }
  auto index = ClusteredKeyIndex::Build(&*table, 0);
  EXPECT_EQ(index.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TableSampleTest, FractionRoughlyHonored) {
  MemPager pager;
  BufferPool pool(&pager, 512);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  RowBuilder row(&table->schema());
  const uint64_t n = 100000;
  for (uint64_t i = 0; i < n; ++i) {
    row.SetInt64(0, static_cast<int64_t>(i));
    ASSERT_TRUE(table->Append(row).ok());
  }
  Rng rng(77);
  uint64_t sampled = 0;
  ASSERT_TRUE(
      TableSamplePages(*table, 10.0, rng, [&](uint64_t, RowRef) { ++sampled; })
          .ok());
  double fraction = static_cast<double>(sampled) / n;
  EXPECT_NEAR(fraction, 0.10, 0.04);
  // Page granularity: whole pages are emitted, so the count is a multiple
  // of rows-per-page (except possibly the last partial page).
  EXPECT_GT(sampled, 0u);
}

TEST(TableSampleTest, RejectsBadPercent) {
  MemPager pager;
  BufferPool pool(&pager, 4);
  auto table = Table::Create(&pool, TestSchema());
  ASSERT_TRUE(table.ok());
  Rng rng(1);
  EXPECT_FALSE(
      TableSamplePages(*table, -1.0, rng, [](uint64_t, RowRef) {}).ok());
  EXPECT_FALSE(
      TableSamplePages(*table, 101.0, rng, [](uint64_t, RowRef) {}).ok());
}

}  // namespace
}  // namespace mds
