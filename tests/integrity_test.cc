#include <gtest/gtest.h>

#include <cstdio>
#include <fcntl.h>
#include <filesystem>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"
#include "core/access_path.h"
#include "core/index_io.h"
#include "core/point_table.h"
#include "core/query_planner.h"
#include "gated_pager.h"
#include "storage/buffer_pool.h"
#include "storage/page_checksum.h"
#include "storage/pager.h"

namespace mds {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Flips one bit of page `id` directly in the pager file, bypassing every
/// software layer — the test's stand-in for media corruption.
void FlipBitOnDisk(const std::string& path, PageId id, uint64_t byte,
                   uint8_t mask) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  uint8_t b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, static_cast<off_t>(id * kPageSize + byte)), 1);
  b ^= mask;
  ASSERT_EQ(::pwrite(fd, &b, 1, static_cast<off_t>(id * kPageSize + byte)), 1);
  ::close(fd);
}

// --- CRC-32C ---------------------------------------------------------------

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix / crcutil).
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // 32 zero bytes, another published vector.
  uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8a9136aau);
}

TEST(Crc32cTest, Incremental) {
  const char* data = "the quick brown fox jumps over the lazy dog";
  const size_t n = 43;
  const uint32_t whole = Crc32c(data, n);
  for (size_t split : {size_t{1}, size_t{7}, size_t{20}, size_t{42}}) {
    uint32_t crc = Crc32c(0, data, split);
    crc = Crc32c(crc, data + split, n - split);
    EXPECT_EQ(crc, whole);
  }
}

TEST(Crc32cTest, LargeBufferMatchesByteAtATime) {
  // Page-sized and larger inputs take the interleaved multi-stream path;
  // folding one byte at a time never does. Agreement pins the stream-merge
  // arithmetic to the reference bytewise definition.
  Rng rng(42);
  for (size_t size : {size_t{8188}, size_t{8192}, size_t{30000}}) {
    std::vector<uint8_t> buf(size);
    for (auto& byte : buf) byte = static_cast<uint8_t>(rng.NextU64());
    const uint32_t whole = Crc32c(buf.data(), buf.size());
    uint32_t crc = 0;
    for (size_t i = 0; i < buf.size(); ++i) {
      crc = Crc32c(crc, buf.data() + i, 1);
    }
    EXPECT_EQ(crc, whole) << size;
  }
}

// --- Page checksum ---------------------------------------------------------

TEST(PageChecksumTest, StampVerifyRoundTrip) {
  Page page;
  Rng rng(7);
  for (size_t i = 0; i < kPageUsableSize; ++i) {
    page.bytes()[i] = static_cast<uint8_t>(rng.NextU64());
  }
  StampPageChecksum(&page);
  EXPECT_EQ(VerifyPageChecksum(page), PageVerdict::kOk);
  EXPECT_EQ(page.ReadAt<uint8_t>(kPageFormatOffset), kPageFormatV1);
}

TEST(PageChecksumTest, DetectsAnySingleBitFlip) {
  Page page;
  Rng rng(8);
  for (size_t i = 0; i < kPageUsableSize; ++i) {
    page.bytes()[i] = static_cast<uint8_t>(rng.NextU64());
  }
  StampPageChecksum(&page);
  // Sampled positions across payload, format byte and the CRC itself.
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t bit = rng.NextBounded(kPageSize * 8);
    page.bytes()[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    EXPECT_EQ(VerifyPageChecksum(page), PageVerdict::kCorrupt) << bit;
    page.bytes()[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  EXPECT_EQ(VerifyPageChecksum(page), PageVerdict::kOk);
}

TEST(PageChecksumTest, FreshZeroPageIsUnformatted) {
  Page page;
  EXPECT_EQ(VerifyPageChecksum(page), PageVerdict::kUnformatted);
}

TEST(PageChecksumTest, TornWriteOverFreshPageIsCorrupt) {
  // A stamped page whose tail (footer included) never hit the disk leaves
  // payload bytes under a zero footer. Format 0 must NOT mean "skip" then:
  // only an all-zero page is legitimately unformatted.
  Page page;
  page.WriteAt<uint64_t>(64, 0x1234567890abcdefULL);
  EXPECT_EQ(VerifyPageChecksum(page), PageVerdict::kCorrupt);
}

TEST(PageChecksumTest, UnknownFormatIsCorrupt) {
  Page page;
  StampPageChecksum(&page);
  page.WriteAt<uint8_t>(kPageFormatOffset, 0x7f);
  EXPECT_EQ(VerifyPageChecksum(page), PageVerdict::kCorrupt);
}

// --- Buffer-pool verification & quarantine ---------------------------------

TEST(BufferPoolChecksumTest, StampsOnWriteVerifiesOnRead) {
  const std::string path = TempPath("mds_integrity_stamp.db");
  Schema schema = PointTableSchema(2);
  std::vector<PageId> page_ids;
  uint64_t num_rows = 0;
  {
    auto pager = FilePager::Create(path);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 32);
    auto table = Table::Create(&pool, schema);
    ASSERT_TRUE(table.ok());
    RowBuilder row(&schema);
    for (int i = 0; i < 2000; ++i) {
      row.SetInt64(0, i);
      row.SetFloat32(1, static_cast<float>(i));
      row.SetFloat32(2, static_cast<float>(2 * i));
      ASSERT_TRUE(table->Append(row).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    num_rows = table->num_rows();
    for (uint64_t p = 0; p < table->num_pages(); ++p) {
      page_ids.push_back(table->page_id(p));
    }
  }

  // Every page written through the pool carries a valid v1 stamp on disk.
  {
    auto pager = FilePager::Open(path);
    ASSERT_TRUE(pager.ok());
    Page page;
    for (PageId id : page_ids) {
      ASSERT_TRUE((*pager)->ReadPage(id, &page).ok());
      EXPECT_EQ(VerifyPageChecksum(page), PageVerdict::kOk) << id;
    }
  }

  // Reopen through a pool: misses verify, and the counters say so.
  {
    auto pager = FilePager::Open(path);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 32);
    auto table = Table::Attach(&pool, schema, page_ids, num_rows);
    ASSERT_TRUE(table.ok());
    const CounterSnapshot before = pool.Snapshot();
    uint8_t buf[16];
    ASSERT_TRUE(table->ReadRow(0, buf).ok());
    ASSERT_TRUE(table->ReadRow(num_rows - 1, buf).ok());
    const CounterSnapshot::Delta delta = pool.Delta(before);
    EXPECT_EQ(delta.physical_reads, 2u);
    EXPECT_EQ(delta.checksums_verified, 2u);
    EXPECT_EQ(delta.checksum_skips, 0u);
    EXPECT_EQ(pool.stats().checksum_failures, 0u);
  }
  std::remove(path.c_str());
}

TEST(BufferPoolChecksumTest, CorruptPageQuarantined) {
  const std::string path = TempPath("mds_integrity_quarantine.db");
  Schema schema = PointTableSchema(2);
  std::vector<PageId> page_ids;
  uint64_t num_rows = 0;
  {
    auto pager = FilePager::Create(path);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 32);
    auto table = Table::Create(&pool, schema);
    ASSERT_TRUE(table.ok());
    RowBuilder row(&schema);
    for (int i = 0; i < 2000; ++i) {
      row.SetInt64(0, i);
      row.SetFloat32(1, 1.0f);
      row.SetFloat32(2, 2.0f);
      ASSERT_TRUE(table->Append(row).ok());
    }
    ASSERT_TRUE(pool.FlushAll().ok());
    num_rows = table->num_rows();
    for (uint64_t p = 0; p < table->num_pages(); ++p) {
      page_ids.push_back(table->page_id(p));
    }
  }
  ASSERT_GE(page_ids.size(), 2u);
  FlipBitOnDisk(path, page_ids[1], 123, 0x10);

  auto pager = FilePager::Open(path);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 32);
  auto table = Table::Attach(&pool, schema, page_ids, num_rows);
  ASSERT_TRUE(table.ok());

  uint8_t buf[16];
  // Rows on the clean page read fine.
  ASSERT_TRUE(table->ReadRow(0, buf).ok());
  // Rows on the corrupt page fail with Corruption and quarantine it.
  const uint64_t bad_row = table->rows_per_page();  // first row of page 1
  Status bad = table->ReadRow(bad_row, buf);
  EXPECT_EQ(bad.code(), StatusCode::kCorruption);
  EXPECT_TRUE(pool.IsQuarantined(page_ids[1]));
  EXPECT_EQ(pool.quarantined_count(), 1u);
  EXPECT_EQ(pool.stats().checksum_failures, 1u);

  // A second attempt fails fast out of quarantine: no new physical read,
  // no double-counted failure.
  const BufferPoolStats before = pool.stats();
  EXPECT_EQ(table->ReadRow(bad_row, buf).code(), StatusCode::kCorruption);
  const BufferPoolStats after = pool.stats();
  EXPECT_EQ(after.physical_reads, before.physical_reads);
  EXPECT_EQ(after.checksum_failures, before.checksum_failures);
  std::remove(path.c_str());
}

TEST(BufferPoolChecksumTest, ConcurrentFetchersOfACorruptPageShareOneRead) {
  MemPager base;
  ASSERT_TRUE(WriteStampedPages(&base, 3).ok());
  const PageId kBad = 1;
  Page page;
  ASSERT_TRUE(base.ReadPage(kBad, &page).ok());
  page.data[123] ^= 0x10;
  ASSERT_TRUE(base.WritePage(kBad, page).ok());  // bypasses the stamp

  GatedPager pager(&base, kBad);
  BufferPool pool(&pager, 8);
  constexpr int kThreads = 6;
  std::atomic<int> corrupt{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      if (pool.Fetch(kBad).status().code() == StatusCode::kCorruption) {
        corrupt.fetch_add(1);
      }
    });
  }
  const bool blocked =
      pager.WaitUntilGatedReadBlocks(std::chrono::seconds(10));
  // Let the other fetchers queue behind the in-flight load. Any that come
  // later fail out of quarantine, which the assertions below also allow.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  pager.Open();
  for (auto& thread : threads) thread.join();

  ASSERT_TRUE(blocked);
  EXPECT_EQ(corrupt.load(), kThreads);
  EXPECT_EQ(pager.reads(), 1u);
  EXPECT_EQ(pool.quarantined_count(), 1u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.checksum_failures, 1u);
  EXPECT_EQ(stats.physical_reads, 1u);
  EXPECT_EQ(pool.resident(), 0u);  // no loading frame left behind
  // The failed frame is recycled cleanly: a good page still loads.
  auto good = pool.Fetch(0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->page().ReadAt<uint64_t>(0), 1000u);
}

TEST(BufferPoolChecksumTest, VerifyDisabledSkipsBoth) {
  const std::string path = TempPath("mds_integrity_noverify.db");
  {
    auto pager = FilePager::Create(path);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 8, 0, /*verify_checksums=*/false);
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    guard->MutablePage().WriteAt<uint64_t>(0, 42);
    guard->Release();
    ASSERT_TRUE(pool.FlushAll().ok());
  }
  auto pager = FilePager::Open(path);
  ASSERT_TRUE(pager.ok());
  Page page;
  ASSERT_TRUE((*pager)->ReadPage(0, &page).ok());
  // No stamp was written...
  EXPECT_EQ(page.ReadAt<uint8_t>(kPageFormatOffset), kPageFormatNone);
  // ...and a verifying pool would reject it (nonzero payload, no footer),
  // while a non-verifying pool reads it back without complaint.
  BufferPool no_verify(pager->get(), 8, 0, /*verify_checksums=*/false);
  auto fetched = no_verify.Fetch(0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->page().ReadAt<uint64_t>(0), 42u);
  EXPECT_EQ(no_verify.stats().checksums_verified, 0u);
  std::remove(path.c_str());
}

// --- FilePager retries & error context -------------------------------------

TEST(FilePagerTest, ErrorsCarryPathAndPageId) {
  const std::string path = TempPath("mds_integrity_ctx.db");
  auto pager = FilePager::Create(path);
  ASSERT_TRUE(pager.ok());
  Page page;
  Status status = (*pager)->ReadPage(17, &page);
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(status.message().find(path), std::string::npos) << status.message();
  EXPECT_NE(status.message().find("17"), std::string::npos) << status.message();
  std::remove(path.c_str());
}

TEST(AnnotateStatusTest, PrependsContextPreservesCode) {
  Status inner = Status::IOError("pread: whoops");
  Status annotated = AnnotateStatus(inner, "ReadPage(id=3)");
  EXPECT_EQ(annotated.code(), StatusCode::kIOError);
  EXPECT_EQ(annotated.message(), "ReadPage(id=3): pread: whoops");
  EXPECT_TRUE(AnnotateStatus(Status::OK(), "ctx").ok());
}

// --- RetryingPager ---------------------------------------------------------

TEST(RetryingPagerTest, AbsorbsTransients) {
  MemPager base;
  FaultConfig config;
  config.seed = 11;
  config.p_transient = 1.0;  // every first attempt fails, retry passes
  FaultInjectionPager faulty(&base, config);
  RetryingPager retrying(&faulty, RetryingPager::Options{4, 0});

  auto id = retrying.AllocatePage();
  ASSERT_TRUE(id.ok());
  Page page;
  page.WriteAt<uint64_t>(0, 99);
  ASSERT_TRUE(retrying.WritePage(*id, page).ok());
  Page back;
  ASSERT_TRUE(retrying.ReadPage(*id, &back).ok());
  EXPECT_EQ(back.ReadAt<uint64_t>(0), 99u);
  ASSERT_TRUE(retrying.Sync().ok());
  EXPECT_EQ(retrying.retries(), 4u);  // one retry per operation
  EXPECT_EQ(retrying.exhausted(), 0u);
  EXPECT_EQ(faulty.stats().transients, 4u);
}

TEST(RetryingPagerTest, ReportsExhaustion) {
  MemPager base;
  FaultConfig config;
  config.seed = 12;
  config.p_permanent = 1.0;  // never recoverable
  FaultInjectionPager faulty(&base, config);
  RetryingPager retrying(&faulty, RetryingPager::Options{3, 0});
  Page page;
  EXPECT_EQ(retrying.ReadPage(0, &page).code(), StatusCode::kIOError);
  // Permanent errors are not transient: no retry, no exhaustion.
  EXPECT_EQ(retrying.retries(), 0u);

  FaultConfig flaky;
  flaky.seed = 13;
  flaky.p_transient = 1.0;
  FaultInjectionPager always_transient(&base, flaky);
  RetryingPager one_shot(&always_transient, RetryingPager::Options{1, 0});
  EXPECT_EQ(one_shot.ReadPage(0, &page).code(), StatusCode::kUnavailable);
  EXPECT_EQ(one_shot.exhausted(), 1u);
}

// --- Degraded scans and planner fallback ------------------------------------

class DegradedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("mds_integrity_degraded.db");
    Rng rng(2026);
    points_ = PointSet(2, 0);
    std::vector<double> p(2);
    for (int i = 0; i < 20000; ++i) {
      p[0] = rng.NextDouble();
      p[1] = rng.NextDouble();
      points_.Append(p.data());
    }
    auto pager = FilePager::Create(path_);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 256);
    auto kd = KdTreeIndex::Build(&points_);
    ASSERT_TRUE(kd.ok());
    kd_ = std::make_unique<KdTreeIndex>(std::move(*kd));
    auto table =
        MaterializePointTable(&pool, points_, kd_->clustered_order());
    ASSERT_TRUE(table.ok());
    num_rows_ = table->num_rows();
    for (uint64_t p2 = 0; p2 < table->num_pages(); ++p2) {
      page_ids_.push_back(table->page_id(p2));
    }
    ASSERT_TRUE(pool.FlushAll().ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  std::vector<int64_t> BruteForce(const Polyhedron& poly) const {
    std::vector<int64_t> out;
    for (uint64_t i = 0; i < points_.size(); ++i) {
      if (poly.Contains(points_.point(i))) {
        out.push_back(static_cast<int64_t>(i));
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  std::string path_;
  PointSet points_{2, 0};
  std::unique_ptr<KdTreeIndex> kd_;
  std::vector<PageId> page_ids_;
  uint64_t num_rows_ = 0;
};

TEST_F(DegradedQueryTest, StrictFailsSkipModeDegrades) {
  // Corrupt one mid-table page on disk.
  FlipBitOnDisk(path_, page_ids_[page_ids_.size() / 2], 1000, 0x01);

  auto pager = FilePager::Open(path_);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 256);
  Schema schema = PointTableSchema(2);
  auto table = Table::Attach(&pool, schema, page_ids_, num_rows_);
  ASSERT_TRUE(table.ok());
  PointTableBinding binding = BindPointTable(&*table, 2);

  Polyhedron poly = Polyhedron::BallApproximation({0.5, 0.5}, 0.45, 16);
  const std::vector<int64_t> expected = BruteForce(poly);
  ASSERT_FALSE(expected.empty());

  // Strict: the scan aborts with Corruption.
  {
    FullScanPath scan(binding, poly);
    auto result = ExecuteAccessPath(&scan);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  }

  // Skip mode: partial answer, accurately flagged.
  {
    FullScanPath scan(binding, poly);
    RangeScanner::ScanOptions options;
    options.skip_corrupt_pages = true;
    QueryStats stats;
    auto result = ExecuteAccessPath(&scan, options, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->degraded);
    EXPECT_EQ(result->pages_skipped, 1u);
    EXPECT_TRUE(stats.degraded);
    std::vector<int64_t> got = result->objids;
    std::sort(got.begin(), got.end());
    // Subset of the fault-free answer, missing at most one page of rows.
    EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                              got.end()));
    EXPECT_LE(expected.size() - got.size(), table->rows_per_page());
  }

  // Parallel scan reports the same degradation.
  {
    FullScanPath scan(binding, poly);
    RangeScanner::ScanOptions options;
    options.skip_corrupt_pages = true;
    auto result = ExecuteAccessPathParallel(&scan, 4, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->degraded);
    EXPECT_EQ(result->pages_skipped, 1u);
  }
}

TEST_F(DegradedQueryTest, PlannerFallsBackToCleanPath) {
  auto pager = FilePager::Open(path_);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 256);
  Schema schema = PointTableSchema(2);
  auto kd_table = Table::Attach(&pool, schema, page_ids_, num_rows_);
  ASSERT_TRUE(kd_table.ok());

  // A second, heap-ordered copy of the data in the same file — the
  // fallback target. Built before the corruption is injected.
  auto heap_table = MaterializePointTable(&pool, points_, {});
  ASSERT_TRUE(heap_table.ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  // Corrupt every page of the kd-clustered table so any index-path scan
  // hits a checksum failure. The heap copy stays clean.
  for (PageId id : page_ids_) {
    FlipBitOnDisk(path_, id, 64, 0x08);
  }

  Polyhedron poly = Polyhedron::BallApproximation({0.5, 0.5}, 0.1, 16);
  const std::vector<int64_t> expected = BruteForce(poly);
  ASSERT_FALSE(expected.empty());

  QueryPlanner planner;
  planner.AddPath(std::make_unique<KdTreePath>(BindPointTable(&*kd_table, 2),
                                               *kd_, poly));
  planner.AddPath(
      std::make_unique<FullScanPath>(BindPointTable(&*heap_table, 2), poly));

  // The kd path is cheaper for this selective query, so the planner picks
  // it, hits corruption, and falls back to the clean full scan.
  std::string chosen;
  QueryStats stats;
  auto result = planner.Execute(QueryPlanner::ExecuteOptions{}, &stats,
                                &chosen);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(chosen, "full-scan");
  EXPECT_TRUE(result->degraded);  // corruption was detected en route
  std::vector<int64_t> got = result->objids;
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expected);  // ...but the answer itself is complete

  // With fallback disabled the same query surfaces the Corruption.
  QueryPlanner::ExecuteOptions strict;
  strict.fallback_on_corruption = false;
  QueryPlanner planner2;
  planner2.AddPath(std::make_unique<KdTreePath>(BindPointTable(&*kd_table, 2),
                                                *kd_, poly));
  planner2.AddPath(
      std::make_unique<FullScanPath>(BindPointTable(&*heap_table, 2), poly));
  auto failed = planner2.Execute(strict);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kCorruption);
}

// --- Atomic index save ------------------------------------------------------

TEST(IndexIoAtomicTest, SaveIsDurableBeforeHeadReturns) {
  const std::string path = TempPath("mds_integrity_atomic.db");
  Rng rng(5);
  PointSet ps(2, 0);
  std::vector<double> p(2);
  for (int i = 0; i < 5000; ++i) {
    p[0] = rng.NextDouble();
    p[1] = rng.NextDouble();
    ps.Append(p.data());
  }
  PageId head = kInvalidPageId;
  {
    auto pager = FilePager::Create(path);
    ASSERT_TRUE(pager.ok());
    BufferPool pool(pager->get(), 64);
    auto tree = KdTreeIndex::Build(&ps);
    ASSERT_TRUE(tree.ok());
    auto saved = IndexIo::SaveKdTree(&pool, *tree);
    ASSERT_TRUE(saved.ok());
    head = *saved;
    // No FlushAll here: Save itself must have made the chain durable.
  }
  auto pager = FilePager::Open(path);
  ASSERT_TRUE(pager.ok());
  BufferPool pool(pager->get(), 64);
  auto loaded = IndexIo::LoadKdTree(&pool, head, &ps);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(IndexIoAtomicTest, LoadErrorsCarryHeadContext) {
  MemPager pager;
  BufferPool pool(&pager, 16);
  PageStreamWriter w(&pool);
  ASSERT_TRUE(w.WriteValue<uint64_t>(0xbadbadbadULL).ok());  // wrong magic
  auto head = w.Finish();
  ASSERT_TRUE(head.ok());
  PointSet ps(2, 0);
  auto loaded = IndexIo::LoadKdTree(&pool, *head, &ps);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("LoadKdTree"), std::string::npos)
      << loaded.status().message();
  EXPECT_NE(loaded.status().message().find("head=" + std::to_string(*head)),
            std::string::npos)
      << loaded.status().message();
}

}  // namespace
}  // namespace mds
