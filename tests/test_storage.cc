// Tests for the storage engine: simulated disk, buffer pool, row codec,
// blob store, B+-tree, tables.
#include <gtest/gtest.h>

#include <map>

#include "common/bytes.h"
#include "common/rng.h"
#include "storage/blob.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/table.h"
#include "storage/verify.h"

namespace sqlarray::storage {
namespace {

TEST(SimulatedDisk, AllocateReadWrite) {
  SimulatedDisk disk;
  PageId id = disk.AllocatePage();
  EXPECT_NE(id, kNullPage);
  Page page;
  page.data()[0] = 42;
  ASSERT_TRUE(disk.WritePage(id, page).ok());
  Page back;
  ASSERT_TRUE(disk.ReadPage(id, &back).ok());
  EXPECT_EQ(back.data()[0], 42);
}

TEST(SimulatedDisk, RejectsUnallocatedAccess) {
  SimulatedDisk disk;
  Page page;
  EXPECT_FALSE(disk.ReadPage(kNullPage, &page).ok());
  EXPECT_FALSE(disk.ReadPage(5, &page).ok());
  EXPECT_FALSE(disk.WritePage(9, page).ok());
}

TEST(SimulatedDisk, SequentialVsRandomAccounting) {
  SimulatedDisk disk;
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(disk.AllocatePage());
  disk.ResetStats();
  Page page;
  for (PageId id : ids) ASSERT_TRUE(disk.ReadPage(id, &page).ok());
  // First read is random (no predecessor), the rest sequential.
  EXPECT_EQ(disk.stats().sequential_reads, 9);
  EXPECT_EQ(disk.stats().random_reads, 1);

  disk.ResetStats();
  ASSERT_TRUE(disk.ReadPage(ids[5], &page).ok());
  ASSERT_TRUE(disk.ReadPage(ids[2], &page).ok());
  EXPECT_EQ(disk.stats().random_reads, 2);
}

TEST(SimulatedDisk, VirtualTimeMatchesThroughputModel) {
  DiskConfig config;
  config.sequential_mb_per_s = 1150.0;
  config.random_latency_us = 0.0;  // also caps the distance-based seek
  SimulatedDisk disk(config);
  std::vector<PageId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(disk.AllocatePage());
  disk.ResetStats();
  Page page;
  for (PageId id : ids) ASSERT_TRUE(disk.ReadPage(id, &page).ok());
  double expect = 1000.0 * kPageSize / (1150.0 * 1e6);
  EXPECT_NEAR(disk.stats().virtual_read_seconds, expect, expect * 1e-9);
}

TEST(BufferPool, CachesAndEvicts) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 2);  // two-page cache
  PageId a = pool.AllocatePage(), b = pool.AllocatePage(),
         c = pool.AllocatePage();
  Page page;
  ASSERT_TRUE(pool.WritePage(a, page).ok());
  ASSERT_TRUE(pool.WritePage(b, page).ok());
  ASSERT_TRUE(pool.WritePage(c, page).ok());
  disk.ResetStats();

  ASSERT_TRUE(pool.GetPage(a).ok());  // miss
  ASSERT_TRUE(pool.GetPage(a).ok());  // hit
  ASSERT_TRUE(pool.GetPage(b).ok());  // miss
  ASSERT_TRUE(pool.GetPage(c).ok());  // miss, evicts a (LRU)
  ASSERT_TRUE(pool.GetPage(a).ok());  // miss again
  storage::BufferPool::Stats stats = pool.Snapshot();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 4);
  EXPECT_EQ(stats.evictions, 2);
  EXPECT_EQ(disk.stats().pages_read, 4);
}

TEST(BufferPool, ClearCacheForcesColdReads) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 16);
  PageId a = pool.AllocatePage();
  Page page;
  ASSERT_TRUE(pool.WritePage(a, page).ok());
  ASSERT_TRUE(pool.GetPage(a).ok());
  disk.ResetStats();
  pool.ClearCache();
  ASSERT_TRUE(pool.GetPage(a).ok());
  EXPECT_EQ(disk.stats().pages_read, 1);
}

TEST(BufferPool, PinnedPageSurvivesEvictionPressure) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 2);  // two-page cache
  PageId a = pool.AllocatePage(), b = pool.AllocatePage(),
         c = pool.AllocatePage();
  Page page;
  page.data()[0] = 0xAB;
  ASSERT_TRUE(pool.WritePage(a, page).ok());
  ASSERT_TRUE(pool.WritePage(b, page).ok());
  ASSERT_TRUE(pool.WritePage(c, page).ok());
  pool.ClearCache();

  // Hold a pin on `a` while faulting in enough pages to evict it twice over.
  PinnedPage pinned = pool.GetPage(a).value();
  EXPECT_EQ(pool.Snapshot().pinned_pages, 1);
  const Page* raw = pinned.get();
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(pool.GetPage(b).ok());
    ASSERT_TRUE(pool.GetPage(c).ok());
  }
  // The pinned frame was never evicted or moved: the pointer still reads the
  // same bytes, and re-fetching `a` is a cache hit, not a disk read.
  EXPECT_EQ(raw, pinned.get());
  EXPECT_EQ(pinned->data()[0], 0xAB);
  disk.ResetStats();
  ASSERT_TRUE(pool.GetPage(a).ok());
  EXPECT_EQ(disk.stats().pages_read, 0);

  pinned.Release();
  EXPECT_EQ(pool.Snapshot().pinned_pages, 0);

  // ClearCache also spares pinned frames.
  PinnedPage again = pool.GetPage(b).value();
  pool.ClearCache();
  EXPECT_EQ(again->data()[0], 0xAB);
  EXPECT_EQ(again.id(), b);
}

TEST(Schema, RowSizeAndOffsets) {
  Schema s = Schema::Create({{"id", ColumnType::kInt64, 0},
                             {"v1", ColumnType::kFloat64, 0},
                             {"small", ColumnType::kBinary, 16},
                             {"big", ColumnType::kVarBinaryMax, 0}})
                 .value();
  EXPECT_EQ(s.row_size(), 8 + 8 + (2 + 16) + 12);
  EXPECT_EQ(s.column_offset(1), 8);
  EXPECT_EQ(s.ColumnIndex("small").value(), 2);
  EXPECT_FALSE(s.ColumnIndex("missing").ok());
}

TEST(Schema, RequiresBigIntKey) {
  EXPECT_FALSE(Schema::Create({{"id", ColumnType::kInt32, 0}}).ok());
  EXPECT_FALSE(Schema::Create({}).ok());
}

TEST(Schema, RowCodecRoundTrip) {
  Schema s = Schema::Create({{"id", ColumnType::kInt64, 0},
                             {"a", ColumnType::kInt32, 0},
                             {"b", ColumnType::kFloat32, 0},
                             {"c", ColumnType::kFloat64, 0},
                             {"d", ColumnType::kBinary, 8},
                             {"e", ColumnType::kVarBinaryMax, 0}})
                 .value();
  Row row{int64_t{42}, int32_t{-7}, 1.5f, 2.25,
          std::vector<uint8_t>{1, 2, 3}, BlobId{9, 1000}};
  std::vector<uint8_t> buf(s.row_size());
  ASSERT_TRUE(s.EncodeRow(row, buf.data()).ok());
  EXPECT_EQ(s.DecodeKey(buf.data()), 42);
  Row back = s.DecodeRow(buf.data()).value();
  EXPECT_EQ(std::get<int64_t>(back[0]), 42);
  EXPECT_EQ(std::get<int32_t>(back[1]), -7);
  EXPECT_EQ(std::get<float>(back[2]), 1.5f);
  EXPECT_EQ(std::get<double>(back[3]), 2.25);
  EXPECT_EQ(std::get<std::vector<uint8_t>>(back[4]),
            (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(std::get<BlobId>(back[5]), (BlobId{9, 1000}));
}

TEST(Schema, ValidatesRowShapeAndTypes) {
  Schema s = Schema::Create({{"id", ColumnType::kInt64, 0},
                             {"d", ColumnType::kBinary, 4}})
                 .value();
  EXPECT_FALSE(s.ValidateRow({int64_t{1}}).ok());  // arity
  EXPECT_FALSE(
      s.ValidateRow({int64_t{1}, int64_t{2}}).ok());  // wrong kind
  EXPECT_FALSE(
      s.ValidateRow({int64_t{1}, std::vector<uint8_t>(5)}).ok());  // too big
  EXPECT_TRUE(s.ValidateRow({int64_t{1}, std::vector<uint8_t>(4)}).ok());
}

TEST(BlobStore, RoundTripSizes) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 14);
  BlobStore store(&pool);
  Rng rng(3);
  for (int64_t size : {0, 1, 100, 8183, 8184, 8185, 100000, 3000000}) {
    std::vector<uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
    BlobId id = store.Write(bytes).value();
    EXPECT_EQ(id.size, size);
    std::vector<uint8_t> back = store.ReadAll(id).value();
    EXPECT_EQ(back, bytes) << "size " << size;
  }
}

TEST(BlobStream, PartialReadsMatchFull) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 14);
  BlobStore store(&pool);
  Rng rng(4);
  std::vector<uint8_t> bytes(50000);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  BlobId id = store.Write(bytes).value();

  BlobStream stream = BlobStream::Open(&pool, id).value();
  for (auto [off, len] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 10}, {8180, 20}, {49990, 10}, {12345, 20000}, {0, 50000}}) {
    std::vector<uint8_t> buf(len);
    ASSERT_TRUE(stream.ReadAt(off, buf).ok());
    for (int64_t i = 0; i < len; ++i) {
      ASSERT_EQ(buf[i], bytes[off + i]) << "offset " << off + i;
    }
  }
  std::vector<uint8_t> past(10);
  EXPECT_FALSE(stream.ReadAt(49995, past).ok());
}

TEST(BlobStream, PartialReadTouchesFewPages) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 14);
  BlobStore store(&pool);
  std::vector<uint8_t> bytes(6 * 1000 * 1000);  // the paper's 6 MB blob
  BlobId id = store.Write(bytes).value();
  pool.ClearCache();
  disk.ResetStats();

  BlobStream stream = BlobStream::Open(&pool, id).value();
  std::vector<uint8_t> buf(4096);
  ASSERT_TRUE(stream.ReadAt(3000000, buf).ok());
  // Root + one level-1 index + two data pages at most.
  EXPECT_LE(disk.stats().pages_read, 5);
}

TEST(BTree, InsertAscendingAndScan) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 14);
  BTree tree = BTree::Create(&pool, 16).value();
  const int64_t n = 5000;
  std::vector<uint8_t> row(16);
  for (int64_t k = 0; k < n; ++k) {
    EncodeLE<int64_t>(row.data(), k);
    EncodeLE<int64_t>(row.data() + 8, k * k);
    ASSERT_TRUE(tree.Insert(row).ok());
  }
  EXPECT_EQ(tree.row_count(), n);

  // Ascending bulk load fills pages densely: close to n / capacity pages.
  int64_t min_pages = (n + tree.leaf_capacity() - 1) / tree.leaf_capacity();
  EXPECT_LE(tree.leaf_page_count(), min_pages + 1);

  BTree::Cursor cursor = tree.ScanAll().value();
  int64_t expect = 0;
  while (cursor.valid()) {
    EXPECT_EQ(DecodeLE<int64_t>(cursor.row().data()), expect);
    EXPECT_EQ(DecodeLE<int64_t>(cursor.row().data() + 8), expect * expect);
    ++expect;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(expect, n);
}

TEST(BTree, RandomInsertMatchesModel) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 14);
  BTree tree = BTree::Create(&pool, 24).value();
  std::map<int64_t, int64_t> model;
  Rng rng(5);
  std::vector<uint8_t> row(24);
  for (int trial = 0; trial < 3000; ++trial) {
    int64_t key = rng.UniformInt(0, 999);
    EncodeLE<int64_t>(row.data(), key);
    EncodeLE<int64_t>(row.data() + 8, trial);
    Status st = tree.Insert(row);
    if (model.count(key)) {
      EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
    } else {
      ASSERT_TRUE(st.ok());
      model[key] = trial;
    }
  }
  EXPECT_EQ(tree.row_count(), static_cast<int64_t>(model.size()));

  // Every model key is found with the right payload; absent keys miss.
  std::vector<uint8_t> found;
  for (auto [key, payload] : model) {
    ASSERT_TRUE(tree.Lookup(key, &found).value());
    EXPECT_EQ(DecodeLE<int64_t>(found.data() + 8), payload);
  }
  EXPECT_FALSE(tree.Lookup(-5, &found).value());
  EXPECT_FALSE(tree.Lookup(1000, &found).value());

  // Scan yields keys in sorted order, matching the model exactly.
  BTree::Cursor cursor = tree.ScanAll().value();
  auto it = model.begin();
  while (cursor.valid()) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(DecodeLE<int64_t>(cursor.row().data()), it->first);
    ++it;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(it, model.end());
}

TEST(BTree, GrowsMultipleLevels) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 15);
  // Large rows -> few per leaf -> deep tree quickly.
  BTree tree = BTree::Create(&pool, 1000).value();
  std::vector<uint8_t> row(1000);
  for (int64_t k = 0; k < 8000; ++k) {
    EncodeLE<int64_t>(row.data(), k * 7919 % 100003);  // scattered keys
    ASSERT_TRUE(tree.Insert(row).ok());
  }
  EXPECT_GE(tree.height(), 3);
  std::vector<uint8_t> found;
  EXPECT_TRUE(tree.Lookup(7919 % 100003, &found).value());
}

TEST(BTree, Validation) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 64);
  EXPECT_FALSE(BTree::Create(&pool, 4).ok());     // smaller than a key
  EXPECT_FALSE(BTree::Create(&pool, 8000).ok());  // <2 rows per leaf
  BTree tree = BTree::Create(&pool, 16).value();
  std::vector<uint8_t> wrong(8);
  EXPECT_FALSE(tree.Insert(wrong).ok());
}

TEST(BTree, BulkLoadMatchesScanAndLookup) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 14);
  BTree tree = BTree::Create(&pool, 16).value();
  BTree::BulkLoader loader = tree.StartBulkLoad().value();
  const int64_t n = 20000;
  std::vector<uint8_t> row(16);
  for (int64_t k = 0; k < n; ++k) {
    EncodeLE<int64_t>(row.data(), k * 3);  // gaps between keys
    EncodeLE<int64_t>(row.data() + 8, k);
    ASSERT_TRUE(loader.Add(row).ok());
  }
  ASSERT_TRUE(loader.Finish().ok());
  EXPECT_EQ(tree.row_count(), n);

  // Dense leaves: page count near the minimum.
  int64_t min_pages = (n + tree.leaf_capacity() - 1) / tree.leaf_capacity();
  EXPECT_LE(tree.leaf_page_count(), min_pages + 1);

  BTree::Cursor cursor = tree.ScanAll().value();
  int64_t count = 0;
  while (cursor.valid()) {
    EXPECT_EQ(DecodeLE<int64_t>(cursor.row().data()), count * 3);
    ++count;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(count, n);

  std::vector<uint8_t> found;
  EXPECT_TRUE(tree.Lookup(300, &found).value());
  EXPECT_EQ(DecodeLE<int64_t>(found.data() + 8), 100);
  EXPECT_FALSE(tree.Lookup(301, &found).value());
  EXPECT_FALSE(tree.Lookup(-1, &found).value());
  EXPECT_TRUE(tree.Lookup((n - 1) * 3, &found).value());
}

TEST(BTree, BulkLoadValidation) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BTree::Create(&pool, 16).value();
  std::vector<uint8_t> row(16);
  {
    BTree::BulkLoader loader = tree.StartBulkLoad().value();
    EncodeLE<int64_t>(row.data(), 5);
    ASSERT_TRUE(loader.Add(row).ok());
    EXPECT_FALSE(loader.Add(row).ok());  // not strictly ascending
    ASSERT_TRUE(loader.Finish().ok());
  }
  EXPECT_FALSE(tree.StartBulkLoad().ok());  // non-empty now
}

TEST(BTree, BulkLoadExactLeafBoundary) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BTree::Create(&pool, 16).value();
  BTree::BulkLoader loader = tree.StartBulkLoad().value();
  std::vector<uint8_t> row(16);
  const int64_t n = tree.leaf_capacity() * 3;  // exactly three full leaves
  for (int64_t k = 0; k < n; ++k) {
    EncodeLE<int64_t>(row.data(), k);
    ASSERT_TRUE(loader.Add(row).ok());
  }
  ASSERT_TRUE(loader.Finish().ok());
  BTree::Cursor cursor = tree.ScanAll().value();
  int64_t count = 0;
  while (cursor.valid()) {
    ++count;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(count, n);
}

TEST(Table, BulkLoadWithBlobColumn) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"v", ColumnType::kVarBinaryMax, 0}})
                      .value();
  Table* table = db.CreateTable("bulk", std::move(schema)).value();
  Table::BulkInserter inserter = table->StartBulkLoad().value();
  for (int64_t k = 0; k < 100; ++k) {
    std::vector<uint8_t> blob(20000, static_cast<uint8_t>(k));
    ASSERT_TRUE(inserter.Add({k, std::move(blob)}).ok());
  }
  ASSERT_TRUE(inserter.Finish().ok());
  EXPECT_EQ(table->row_count(), 100);
  Row row = table->Lookup(37).value().value();
  std::vector<uint8_t> back =
      table->ReadBlob(std::get<BlobId>(row[1])).value();
  EXPECT_EQ(back.size(), 20000u);
  EXPECT_EQ(back[5], 37);
}

TEST(FaultInjection, ReadErrorSurfacesFromEveryLayer) {
  // One injected disk fault must propagate cleanly (no crash, no silent
  // wrong answer) through the pool, the B-tree, and the blob stream.
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  // This test asserts raw single-read propagation; disable the pool's
  // read-retry so the one-shot fault is not healed transparently.
  pool.set_max_read_attempts(1);

  // Buffer pool: failed reads are not cached.
  PageId p = pool.AllocatePage();
  Page page;
  ASSERT_TRUE(pool.WritePage(p, page).ok());
  pool.ClearCache();
  disk.InjectReadFaultAfter(0);
  EXPECT_EQ(pool.GetPage(p).status().code(), StatusCode::kCorruption);
  // Retry succeeds (fault is one-shot and the bad entry was not cached).
  EXPECT_TRUE(pool.GetPage(p).ok());

  // B-tree scan: fault mid-scan propagates out of Next()/LoadLeaf.
  BTree tree = BTree::Create(&pool, 16).value();
  {
    BTree::BulkLoader loader = tree.StartBulkLoad().value();
    std::vector<uint8_t> row(16);
    for (int64_t k = 0; k < 5000; ++k) {
      EncodeLE<int64_t>(row.data(), k);
      ASSERT_TRUE(loader.Add(row).ok());
    }
    ASSERT_TRUE(loader.Finish().ok());
  }
  pool.ClearCache();
  disk.InjectReadFaultAfter(3);
  auto cursor_or = tree.ScanAll();
  Status scan_status = cursor_or.status();
  if (cursor_or.ok()) {
    BTree::Cursor cursor = std::move(cursor_or).value();
    while (cursor.valid()) {
      scan_status = cursor.Next();
      if (!scan_status.ok()) break;
    }
  }
  EXPECT_EQ(scan_status.code(), StatusCode::kCorruption);

  // Blob stream: fault inside a partial read propagates.
  BlobStore store(&pool);
  std::vector<uint8_t> blob(100000, 0x5A);
  BlobId id = store.Write(blob).value();
  pool.ClearCache();
  disk.InjectReadFaultAfter(2);
  EXPECT_FALSE(store.ReadAll(id).ok());
  // And the store recovers afterwards.
  EXPECT_TRUE(store.ReadAll(id).ok());
}

TEST(FaultInjection, TableLookupPropagatesFault) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"v", ColumnType::kFloat64, 0}})
                      .value();
  Table* table = db.CreateTable("t", std::move(schema)).value();
  for (int64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(table->Insert({k, 1.0}).ok());
  }
  db.ClearCache();
  db.buffer_pool()->set_max_read_attempts(1);  // assert raw propagation
  db.disk()->InjectReadFaultAfter(0);
  EXPECT_FALSE(table->Lookup(1500).ok());
  EXPECT_TRUE(table->Lookup(1500).ok());  // one-shot
}

TEST(PageChecksums, DetectMediaCorruption) {
  SimulatedDisk disk;
  PageId id = disk.AllocatePage();
  Page page;
  page.data()[100] = 42;
  ASSERT_TRUE(disk.WritePage(id, page).ok());

  Page out;
  ASSERT_TRUE(disk.ReadPage(id, &out).ok());
  ASSERT_TRUE(disk.CorruptPageByte(id, 100).ok());
  EXPECT_EQ(disk.ReadPage(id, &out).code(), StatusCode::kCorruption);

  // Rewriting the page refreshes the checksum.
  ASSERT_TRUE(disk.WritePage(id, page).ok());
  EXPECT_TRUE(disk.ReadPage(id, &out).ok());

  // Verification can be turned off (PAGE_VERIFY NONE).
  ASSERT_TRUE(disk.CorruptPageByte(id, 5).ok());
  disk.set_checksums_enabled(false);
  EXPECT_TRUE(disk.ReadPage(id, &out).ok());
  EXPECT_FALSE(disk.CorruptPageByte(id, 99999).ok());
}

TEST(PageChecksums, UncheckedWriteDropsTheStaleChecksum) {
  SimulatedDisk disk;
  PageId id = disk.AllocatePage();
  Page a;
  a.data()[100] = 1;
  Page b;
  b.data()[100] = 2;
  ASSERT_TRUE(disk.WritePage(id, a).ok());

  // B is written under PAGE_VERIFY NONE; turning verification back on must
  // not hold the intact page to A's checksum.
  disk.set_checksums_enabled(false);
  ASSERT_TRUE(disk.WritePage(id, b).ok());
  disk.set_checksums_enabled(true);
  Page out;
  ASSERT_TRUE(disk.ReadPage(id, &out).ok());
  EXPECT_EQ(out.data()[100], 2);
  EXPECT_EQ(disk.stats().checksum_failures, 0);

  // The page carries no checksum until it is rewritten, so damage to it
  // goes unnoticed, as on a page last written under PAGE_VERIFY NONE.
  ASSERT_TRUE(disk.CorruptPageByte(id, 7).ok());
  EXPECT_TRUE(disk.ReadPage(id, &out).ok());

  // A verified rewrite stamps it again.
  ASSERT_TRUE(disk.WritePage(id, b).ok());
  ASSERT_TRUE(disk.CorruptPageByte(id, 7).ok());
  EXPECT_EQ(disk.ReadPage(id, &out).code(), StatusCode::kCorruption);
}

TEST(PageChecksums, CorruptBlobSurfacesThroughTheStack) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"v", ColumnType::kVarBinaryMax, 0}})
                      .value();
  Table* table = db.CreateTable("c", std::move(schema)).value();
  std::vector<uint8_t> blob(50000, 0x77);
  ASSERT_TRUE(table->Insert({int64_t{1}, blob}).ok());
  Row row = table->Lookup(1).value().value();
  BlobId id = std::get<BlobId>(row[1]);

  // Corrupt one data page of the blob; the streamed read must notice.
  db.ClearCache();
  ASSERT_TRUE(db.disk()->CorruptPageByte(id.root - 3, 4000).ok());
  EXPECT_EQ(table->ReadBlob(id).status().code(), StatusCode::kCorruption);
}

TEST(DistanceSeekModel, NearHopsCheaperThanFarHops) {
  DiskConfig config;
  SimulatedDisk disk(config);
  std::vector<PageId> ids;
  for (int i = 0; i < 20000; ++i) ids.push_back(disk.AllocatePage());
  Page page;

  // Near hop: +2 pages (non-sequential but close).
  ASSERT_TRUE(disk.ReadPage(ids[0], &page).ok());
  disk.ResetStats();
  ASSERT_TRUE(disk.ReadPage(ids[0], &page).ok());
  ASSERT_TRUE(disk.ReadPage(ids[2], &page).ok());
  double near = disk.stats().virtual_read_seconds;

  disk.ResetStats();
  ASSERT_TRUE(disk.ReadPage(ids[0], &page).ok());
  ASSERT_TRUE(disk.ReadPage(ids[19000], &page).ok());
  double far = disk.stats().virtual_read_seconds;
  EXPECT_LT(near, far);
  // The far hop is capped at the full random latency.
  EXPECT_LE(far, near + config.random_latency_us * 1e-6);
}

TEST(BTree, DeleteRemovesAndAllowsReinsert) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 13);
  BTree tree = BTree::Create(&pool, 16).value();
  std::vector<uint8_t> row(16);
  for (int64_t k = 0; k < 2000; ++k) {
    EncodeLE<int64_t>(row.data(), k);
    EncodeLE<int64_t>(row.data() + 8, k * 10);
    ASSERT_TRUE(tree.Insert(row).ok());
  }
  // Delete every third key.
  for (int64_t k = 0; k < 2000; k += 3) {
    EXPECT_TRUE(tree.Delete(k).value());
  }
  EXPECT_FALSE(tree.Delete(0).value());  // already gone
  EXPECT_FALSE(tree.Delete(99999).value());
  EXPECT_EQ(tree.row_count(), 2000 - (2000 + 2) / 3);

  std::vector<uint8_t> found;
  EXPECT_FALSE(tree.Lookup(3, &found).value());
  EXPECT_TRUE(tree.Lookup(4, &found).value());
  EXPECT_EQ(DecodeLE<int64_t>(found.data() + 8), 40);

  // Scan sees exactly the survivors, in order.
  BTree::Cursor cursor = tree.ScanAll().value();
  int64_t prev = -1, count = 0;
  while (cursor.valid()) {
    int64_t k = DecodeLE<int64_t>(cursor.row().data());
    EXPECT_GT(k, prev);
    EXPECT_NE(k % 3, 0);
    prev = k;
    ++count;
    ASSERT_TRUE(cursor.Next().ok());
  }
  EXPECT_EQ(count, tree.row_count());

  // Deleted keys can be reinserted.
  EncodeLE<int64_t>(row.data(), 3);
  EXPECT_TRUE(tree.Insert(row).ok());
  EXPECT_TRUE(tree.Lookup(3, &found).value());
}

TEST(Table, InsertLookupWithBlobSpill) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"v", ColumnType::kVarBinaryMax, 0}})
                      .value();
  Table* table = db.CreateTable("t", std::move(schema)).value();
  std::vector<uint8_t> big(100000, 0xCD);
  ASSERT_TRUE(table->Insert({int64_t{1}, big}).ok());

  Row row = table->Lookup(1).value().value();
  BlobId id = std::get<BlobId>(row[1]);
  EXPECT_EQ(id.size, 100000);
  std::vector<uint8_t> back = table->ReadBlob(id).value();
  EXPECT_EQ(back, big);
  EXPECT_FALSE(table->Lookup(2).value().has_value());
}

TEST(Table, DuplicateKeyRejected) {
  Database db;
  Schema schema =
      Schema::Create({{"id", ColumnType::kInt64, 0}}).value();
  Table* table = db.CreateTable("t", std::move(schema)).value();
  ASSERT_TRUE(table->Insert({int64_t{1}}).ok());
  EXPECT_EQ(table->Insert({int64_t{1}}).code(), StatusCode::kAlreadyExists);
}

TEST(Database, CatalogBasics) {
  Database db;
  Schema schema =
      Schema::Create({{"id", ColumnType::kInt64, 0}}).value();
  ASSERT_TRUE(db.CreateTable("a", schema).ok());
  EXPECT_FALSE(db.CreateTable("a", schema).ok());
  EXPECT_TRUE(db.GetTable("a").ok());
  EXPECT_FALSE(db.GetTable("b").ok());
}

TEST(Table, DeleteReclaimsBlobPages) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"v", ColumnType::kVarBinaryMax, 0}})
                      .value();
  Table* table = db.CreateTable("t", std::move(schema)).value();

  // Each blob spans several out-of-page blob pages.
  constexpr int64_t kRows = 20;
  constexpr size_t kBlobBytes = 20000;
  for (int64_t k = 0; k < kRows; ++k) {
    std::vector<uint8_t> blob(kBlobBytes, static_cast<uint8_t>(k));
    ASSERT_TRUE(table->Insert({k, std::move(blob)}).ok());
  }
  int64_t pages_after_load = db.disk()->page_count();
  ASSERT_TRUE(db.blob_store()->free_pages().empty());

  // Deleting the rows must put every referenced blob page on the free-list
  // (the old inline Delete leaked them permanently).
  for (int64_t k = 0; k < kRows; ++k) {
    ASSERT_TRUE(table->Delete(k).value());
  }
  size_t freed = db.blob_store()->free_pages().size();
  EXPECT_GE(freed, static_cast<size_t>(kRows * 2));  // >= 2 pages per blob

  // Page accounting: reinserting blobs of the same total size must reuse
  // the reclaimed pages, not grow the disk.
  for (int64_t k = 100; k < 100 + kRows; ++k) {
    std::vector<uint8_t> blob(kBlobBytes, static_cast<uint8_t>(k));
    ASSERT_TRUE(table->Insert({k, std::move(blob)}).ok());
  }
  EXPECT_EQ(db.disk()->page_count(), pages_after_load);
  EXPECT_LT(db.blob_store()->free_pages().size(), freed);

  // And the reused blobs read back intact.
  Row row = table->Lookup(105).value().value();
  std::vector<uint8_t> back = table->ReadBlob(std::get<BlobId>(row[1])).value();
  ASSERT_EQ(back.size(), kBlobBytes);
  EXPECT_EQ(back[123], 105);
}

TEST(Table, DeleteWithoutBlobColumnsSkipsBlobBookkeeping) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"v", ColumnType::kFloat64, 0}})
                      .value();
  Table* table = db.CreateTable("t", std::move(schema)).value();
  ASSERT_TRUE(table->Insert({int64_t{1}, 2.5}).ok());
  EXPECT_TRUE(table->Delete(1).value());
  EXPECT_FALSE(table->Delete(1).value());
  EXPECT_TRUE(db.blob_store()->free_pages().empty());
}

TEST(Table, AttachReopensFromRootPage) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"v", ColumnType::kInt64, 0}})
                      .value();
  Table* table = db.CreateTable("orig", schema).value();
  for (int64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(table->Insert({k, k * 2}).ok());
  }
  PageId root = table->clustered_index().root_page();

  // Attach walks the tree from the root and rebuilds the metadata —
  // recovery's path from a logged catalog entry back to a live table.
  std::unique_ptr<Table> attached =
      Table::Attach("again", schema, root, db.buffer_pool(), db.blob_store())
          .value();
  EXPECT_EQ(attached->row_count(), 500);
  Row row = attached->Lookup(321).value().value();
  EXPECT_EQ(std::get<int64_t>(row[1]), 642);
  EXPECT_FALSE(attached->Lookup(500).value().has_value());
  EXPECT_TRUE(VerifyTable(*attached, db.buffer_pool()).issues.empty());
}

}  // namespace
}  // namespace sqlarray::storage
