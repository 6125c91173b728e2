// Fault-injection, checksum, retry, and structural-verification tests.
//
// Everything here is deterministic: fault injectors run from fixed seeds,
// fuzz loops use fixed-seed RNGs, and crafted corruptions target pages found
// through the trees' own metadata. The invariant under test is uniform —
// corrupt storage must surface as a non-OK Status (usually kCorruption
// naming the page), never as a crash, a hang, or a silently wrong answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <vector>

#include "common/bytes.h"
#include "common/crc32c.h"
#include "core/array.h"
#include "core/ops.h"
#include "storage/blob.h"
#include "storage/btree.h"
#include "storage/table.h"
#include "storage/verify.h"

namespace sqlarray::storage {
namespace {

// ---------------------------------------------------------------------------
// Array blob fuzzing: truncations and header bit flips must always error.
// ---------------------------------------------------------------------------

TEST(ArrayFuzz, TruncatedShortBlobNeverParses) {
  std::vector<double> vals(24);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = 0.5 * i;
  OwnedArray a =
      OwnedArray::FromValues<double>(Dims{4, 6}, vals).value();
  std::span<const uint8_t> blob = a.blob();
  for (size_t n = 0; n < blob.size(); ++n) {
    auto r = ArrayRef::Parse(blob.first(n));
    EXPECT_FALSE(r.ok()) << "short blob truncated to " << n
                         << " bytes parsed";
  }
  EXPECT_TRUE(ArrayRef::Parse(blob).ok());
}

TEST(ArrayFuzz, TruncatedMaxBlobNeverParses) {
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, Dims{40, 60}, StorageClass::kMax)
          .value();
  std::span<const uint8_t> blob = a.blob();
  for (size_t n = 0; n < blob.size(); n += 97) {
    auto r = ArrayRef::Parse(blob.first(n));
    EXPECT_FALSE(r.ok()) << "max blob truncated to " << n << " bytes parsed";
  }
  EXPECT_TRUE(ArrayRef::Parse(blob).ok());
}

TEST(ArrayFuzz, ShortHeaderBitFlipsAlwaysError) {
  std::vector<double> vals(24);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = 1e9 + 3.7 * i;
  OwnedArray a =
      OwnedArray::FromValues<double>(Dims{4, 6}, vals).value();

  // Every single-bit flip in the load-bearing header bytes must be caught:
  // magic [0], flags [1], rank [3], element count [4..7], dim sizes [8..11]
  // (rank 2 uses two int16 slots). Byte [2] (dtype) is excluded — flipping
  // it to a narrower type yields a shorter valid blob by design (fixed
  // binary columns pad), and bytes [12..23] are unused slots / reserved.
  const int bytes[] = {0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  for (int byte : bytes) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> blob(a.blob().begin(), a.blob().end());
      blob[byte] ^= static_cast<uint8_t>(1u << bit);
      auto r = ArrayRef::Parse(blob);
      EXPECT_FALSE(r.ok())
          << "flip of byte " << byte << " bit " << bit << " parsed";
    }
  }
}

TEST(ArrayFuzz, MaxHeaderBitFlipsAlwaysError) {
  OwnedArray a =
      OwnedArray::Zeros(DType::kFloat64, Dims{2000}, StorageClass::kMax)
          .value();

  // Load-bearing max-header bytes: magic [0], flags [1], rank [4..7],
  // element count [8..15], dim size [16..19]. Byte [2] (dtype, see above)
  // and byte [3] (reserved, ignored by decode) are excluded.
  std::vector<int> bytes = {0, 1};
  for (int b = 4; b < 20; ++b) bytes.push_back(b);
  for (int byte : bytes) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> blob(a.blob().begin(), a.blob().end());
      blob[byte] ^= static_cast<uint8_t>(1u << bit);
      auto r = ArrayRef::Parse(blob);
      EXPECT_FALSE(r.ok())
          << "flip of byte " << byte << " bit " << bit << " parsed";
    }
  }
}

TEST(ArrayFuzz, RandomBlobsNeverCrashTheDecoder) {
  std::mt19937_64 rng(0xFA11);
  std::uniform_int_distribution<int> len_dist(0, 96);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int iter = 0; iter < 5000; ++iter) {
    std::vector<uint8_t> blob(len_dist(rng));
    for (uint8_t& b : blob) b = static_cast<uint8_t>(byte_dist(rng));
    // Half the blobs get a valid magic so decoding proceeds past byte 0.
    if (!blob.empty() && iter % 2 == 0) blob[0] = kArrayMagic;
    auto r = ArrayRef::Parse(blob);
    if (r.ok()) {
      // If a random blob happens to parse, its claimed extent must lie
      // inside the buffer — the view can never read out of bounds.
      EXPECT_LE(static_cast<size_t>(r->header().blob_size()), blob.size());
    }
  }
}

/// The element read the typed Item_N functions made before ReadShortItem:
/// decode the header, check the schema, parse the view, read the item.
Result<double> ParseChainItem(std::span<const uint8_t> blob, DType dtype,
                              std::span<const int64_t> index) {
  SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, DecodeHeader(blob));
  SQLARRAY_RETURN_IF_ERROR(CheckSchemaMatch(h, dtype, StorageClass::kShort));
  SQLARRAY_ASSIGN_OR_RETURN(ArrayRef ref, ArrayRef::Parse(blob));
  return Item(ref, index);
}

/// One read of a fresh ShortItemReader.
Result<double> ReadShortItem(std::span<const uint8_t> blob, DType dtype,
                             std::span<const int64_t> index) {
  return ShortItemReader(dtype).Read(blob, index);
}

void ExpectSameRead(const Result<double>& got, const Result<double>& want,
                    const std::string& what) {
  ASSERT_EQ(got.ok(), want.ok()) << what;
  if (want.ok()) {
    EXPECT_EQ(std::memcmp(&*got, &*want, sizeof(double)), 0) << what;
  } else {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << what;
  }
}

/// ReadShortItem must agree with the parse chain on every input: the same
/// value bit for bit, or the same Status code and message. So must a
/// ShortItemReader that has just read `primer` (a valid blob) at the same
/// index, whose remembered header and index tuple then meet `blob`, and
/// `carried`, one reader per dtype that reads every input in turn.
void ExpectReaderMatchesChain(std::span<const uint8_t> blob,
                              std::span<const uint8_t> primer,
                              std::map<DType, ShortItemReader>* carried,
                              const std::string& what) {
  const int64_t indices[][2] = {{0, 0}, {3, 5}, {1, 2}, {-1, 0}, {4, 6}};
  for (DType dtype : {DType::kFloat64, DType::kInt32, DType::kFloat32}) {
    ShortItemReader& running = carried->try_emplace(dtype, dtype).first->second;
    for (size_t rank = 1; rank <= 2; ++rank) {
      for (const auto& idx : indices) {
        std::span<const int64_t> index(idx, rank);
        const Result<double> want = ParseChainItem(blob, dtype, index);
        ExpectSameRead(ReadShortItem(blob, dtype, index), want, what);
        ShortItemReader primed(dtype);
        ExpectSameRead(primed.Read(primer, index),
                       ParseChainItem(primer, dtype, index), what + " primer");
        ExpectSameRead(primed.Read(blob, index), want, what + " after primer");
        ExpectSameRead(running.Read(blob, index), want, what + " carried");
      }
    }
  }
}

TEST(ArrayFuzz, ShortItemReaderMatchesTheParseChain) {
  std::vector<double> vals(24);
  for (size_t i = 0; i < vals.size(); ++i) vals[i] = 0.25 * i - 2;
  OwnedArray a = OwnedArray::FromValues<double>(Dims{4, 6}, vals).value();
  std::vector<uint8_t> blob(a.blob().begin(), a.blob().end());
  blob.resize(blob.size() + 8, 0);  // fixed binary columns pad
  std::map<DType, ShortItemReader> carried;
  const auto expect = [&](std::span<const uint8_t> input,
                          const std::string& what) {
    ExpectReaderMatchesChain(input, blob, &carried, what);
  };
  expect(blob, "valid padded blob");
  // The same header over other elements: a remembered header must not
  // remember the payload.
  std::vector<uint8_t> other = blob;
  for (size_t i = kShortHeaderSize; i < other.size(); ++i) other[i] ^= 0x5A;
  expect(other, "valid blob with other elements");
  for (size_t n = 0; n <= blob.size(); ++n) {
    expect(std::span<const uint8_t>(blob).first(n),
           "truncated to " + std::to_string(n));
  }
  // Every single-bit flip of the header, the dtype and reserved bytes
  // included.
  for (int byte = 0; byte < kShortHeaderSize; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> flipped = blob;
      flipped[byte] ^= static_cast<uint8_t>(1u << bit);
      expect(flipped, "flip of byte " + std::to_string(byte) + " bit " +
                          std::to_string(bit));
    }
  }
  // Max arrays (the wrong class) and other dtypes (the wrong schema).
  OwnedArray max =
      OwnedArray::Zeros(DType::kFloat64, Dims{4, 6}, StorageClass::kMax)
          .value();
  expect(max.blob(), "max array");
  OwnedArray ints = OwnedArray::Zeros(DType::kInt32, Dims{5}).value();
  expect(ints.blob(), "int32 array");
  // Random bytes, half of them behind a valid magic and short flag.
  std::mt19937_64 rng(0x17E3);
  std::uniform_int_distribution<int> len_dist(0, 96);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<uint8_t> noise(len_dist(rng));
    for (uint8_t& b : noise) b = static_cast<uint8_t>(byte_dist(rng));
    if (noise.size() >= 4 && iter % 2 == 0) {
      noise[0] = kArrayMagic;
      noise[1] = 0;
      noise[2] = static_cast<uint8_t>(iter % kNumDTypes);
      noise[3] = static_cast<uint8_t>(1 + iter % kMaxShortRank);
    }
    expect(noise, "random blob " + std::to_string(iter));
  }
}

TEST(HeaderFuzz, OverflowingShapesAreRejectedNotUB) {
  // Short header claiming 32767^6 elements: the product overflows int64
  // twice over; DecodeHeader must reject it without computing it.
  std::vector<uint8_t> shorty(kShortHeaderSize, 0);
  shorty[0] = kArrayMagic;
  shorty[1] = 0;                               // short class
  shorty[2] = static_cast<uint8_t>(DType::kFloat64);
  shorty[3] = 6;                               // rank
  EncodeLE<uint32_t>(shorty.data() + 4, 0xFFFFFFFFu);
  for (int k = 0; k < 6; ++k) {
    EncodeLE<int16_t>(shorty.data() + 8 + 2 * k, 32767);
  }
  auto r1 = DecodeHeader(shorty);
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kCorruption);

  // Max header with four int32-max dims: element count overflows int64.
  std::vector<uint8_t> maxy(kMaxHeaderPrefixSize + 4 * 4, 0);
  maxy[0] = kArrayMagic;
  maxy[1] = 1;  // max class
  maxy[2] = static_cast<uint8_t>(DType::kFloat64);
  EncodeLE<uint32_t>(maxy.data() + 4, 4);
  EncodeLE<int64_t>(maxy.data() + 8, 1);  // bogus count; overflow fires first
  for (int k = 0; k < 4; ++k) {
    EncodeLE<int32_t>(maxy.data() + kMaxHeaderPrefixSize + 4 * k, 2147483647);
  }
  auto r2 = DecodeHeader(maxy);
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kCorruption);

  // Two int32-max dims: the element count fits int64 but the byte size
  // (count * 8) does not — the payload-size guard must fire.
  std::vector<uint8_t> wide(kMaxHeaderPrefixSize + 4 * 2, 0);
  wide[0] = kArrayMagic;
  wide[1] = 1;
  wide[2] = static_cast<uint8_t>(DType::kFloat64);
  EncodeLE<uint32_t>(wide.data() + 4, 2);
  EncodeLE<int64_t>(wide.data() + 8, int64_t{2147483647} * 2147483647);
  EncodeLE<int32_t>(wide.data() + kMaxHeaderPrefixSize, 2147483647);
  EncodeLE<int32_t>(wide.data() + kMaxHeaderPrefixSize + 4, 2147483647);
  auto r3 = DecodeHeader(wide);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------------
// Bounded retry with backoff in the buffer pool.
// ---------------------------------------------------------------------------

TEST(FaultRetry, TargetedTransientFaultsHealWithinBudget) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 16);
  PageId p = pool.AllocatePage();
  Page page;
  page.data()[7] = 9;
  ASSERT_TRUE(pool.WritePage(p, page).ok());
  pool.ClearCache();

  FaultInjector* injector = disk.EnableFaults(FaultConfig{});
  injector->ArmTransientReadErrors(p, 2);  // 2 failures < 3 attempts
  const double before = disk.stats().virtual_read_seconds;
  auto r = pool.GetPage(p);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value()->data()[7], 9);
  EXPECT_EQ(disk.stats().read_errors, 2);
  EXPECT_EQ(disk.stats().read_retries, 2);
  EXPECT_EQ(disk.stats().transient_faults_healed, 1);
  EXPECT_EQ(injector->stats().transient_read_errors, 2);
  // Modeled backoff was charged: 100 us + 200 us for attempts 2 and 3.
  EXPECT_GT(disk.stats().virtual_read_seconds, before + 299e-6);
}

TEST(FaultRetry, PersistentFaultEscalatesToCorruptionNamingThePage) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 16);
  PageId p = pool.AllocatePage();
  Page page;
  ASSERT_TRUE(pool.WritePage(p, page).ok());
  pool.ClearCache();

  disk.EnableFaults(FaultConfig{})->ArmTransientReadErrors(p, 100);
  auto r = pool.GetPage(p);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_NE(r.status().message().find("page " + std::to_string(p)),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("after 3 attempt"), std::string::npos)
      << r.status().ToString();
  EXPECT_EQ(disk.stats().read_retries, 2);  // attempts 2 and 3

  // A wider budget heals the remaining armed faults.
  pool.set_max_read_attempts(200);
  EXPECT_TRUE(pool.GetPage(p).ok());
  EXPECT_EQ(disk.stats().transient_faults_healed, 1);
}

TEST(FaultRetry, UnallocatedPageIsNotRetried) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 16);
  auto r = pool.GetPage(42);  // never allocated
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(disk.stats().read_retries, 0);
}

// ---------------------------------------------------------------------------
// Write-path fault classes: torn and dropped writes.
// ---------------------------------------------------------------------------

TEST(FaultWrites, TornWriteIsDetectedOnNextRead) {
  SimulatedDisk disk;
  FaultConfig config;
  config.seed = 7;
  config.torn_write_rate = 1.0;
  FaultInjector* injector = disk.EnableFaults(config);

  PageId p = disk.AllocatePage();
  Page page;
  std::memset(page.data(), 0x5A, kPageSize);
  ASSERT_TRUE(disk.WritePage(p, page).ok());  // acked, but only a prefix hit
  EXPECT_EQ(injector->stats().torn_writes, 1);

  Page out;
  Status st = disk.ReadPage(p, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find(std::to_string(p)), std::string::npos);

  // Healing: a clean rewrite makes the page readable again.
  disk.DisableFaults();
  ASSERT_TRUE(disk.WritePage(p, page).ok());
  EXPECT_TRUE(disk.ReadPage(p, &out).ok());
  EXPECT_EQ(out.data()[4000], 0x5A);
}

TEST(FaultWrites, DroppedWriteIsDetectedAsLostWrite) {
  SimulatedDisk disk;
  FaultConfig config;
  config.seed = 11;
  config.dropped_write_rate = 1.0;
  FaultInjector* injector = disk.EnableFaults(config);

  PageId p = disk.AllocatePage();
  Page page;
  std::memset(page.data(), 0xC3, kPageSize);
  ASSERT_TRUE(disk.WritePage(p, page).ok());  // acked, never stored
  EXPECT_EQ(injector->stats().dropped_writes, 1);

  // The media still holds the old (zero) image while the controller recorded
  // the new checksum: the stale read fails verification instead of silently
  // serving old data.
  Page out;
  Status st = disk.ReadPage(p, &out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(FaultWrites, ChecksumVerificationCanBeDisabled) {
  DiskConfig config;
  config.verify_checksums = false;  // PAGE_VERIFY NONE
  SimulatedDisk disk(config);
  EXPECT_FALSE(disk.checksums_enabled());

  PageId p = disk.AllocatePage();
  Page page;
  page.data()[100] = 1;
  ASSERT_TRUE(disk.WritePage(p, page).ok());
  ASSERT_TRUE(disk.CorruptPageByte(p, 100).ok());
  Page out;
  // Corruption flows through undetected — the configured trade-off.
  EXPECT_TRUE(disk.ReadPage(p, &out).ok());
  EXPECT_EQ(out.data()[100], 1 ^ 0xFF);
}

// ---------------------------------------------------------------------------
// Structural verifier: every crafted break is pinpointed.
// ---------------------------------------------------------------------------

/// Builds a 5000-row tree (row_size 16 → multiple leaves, height 2).
BTree BuildTree(BufferPool* pool) {
  BTree tree = BTree::Create(pool, 16).value();
  BTree::BulkLoader loader = tree.StartBulkLoad().value();
  std::vector<uint8_t> row(16);
  for (int64_t k = 0; k < 5000; ++k) {
    EncodeLE<int64_t>(row.data(), k);
    EncodeLE<int64_t>(row.data() + 8, k * 3);
    EXPECT_TRUE(loader.Add(row).ok());
  }
  EXPECT_TRUE(loader.Finish().ok());
  return tree;
}

/// Reads one page image through the pool.
Page Snapshot(BufferPool* pool, PageId id) {
  return *pool->GetPage(id).value();
}

TEST(Verify, CleanTreeAndBlobPass) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BuildTree(&pool);
  VerifyReport report = VerifyBTree(&pool, tree);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(report.pages_visited, tree.total_page_count());

  BlobStore store(&pool);
  std::vector<uint8_t> bytes(100000, 0x42);
  BlobId id = store.Write(bytes).value();
  VerifyReport blob_report = VerifyBlob(&pool, id);
  EXPECT_TRUE(blob_report.ok()) << blob_report.ToString();
}

TEST(Verify, DetectsKeyDisorderInOneLeaf) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BuildTree(&pool);
  std::vector<PageId> leaves = tree.CollectLeafPages().value();
  ASSERT_GT(leaves.size(), 4u);

  PageId victim = leaves[2];
  Page original = Snapshot(&pool, victim);
  Page bad = original;
  // Swap the keys of the first two rows (rows are 16 bytes at offset 16).
  int64_t k0 = DecodeLE<int64_t>(bad.data() + 16);
  int64_t k1 = DecodeLE<int64_t>(bad.data() + 32);
  EncodeLE<int64_t>(bad.data() + 16, k1);
  EncodeLE<int64_t>(bad.data() + 32, k0);
  ASSERT_TRUE(pool.WritePage(victim, bad).ok());  // valid checksum, bad keys

  VerifyReport report = VerifyBTree(&pool, tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Mentions(victim)) << report.ToString();

  // Restoring the page restores a clean report.
  ASSERT_TRUE(pool.WritePage(victim, original).ok());
  EXPECT_TRUE(VerifyBTree(&pool, tree).ok());
}

TEST(Verify, DetectsBrokenSiblingChain) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BuildTree(&pool);
  std::vector<PageId> leaves = tree.CollectLeafPages().value();
  ASSERT_GT(leaves.size(), 4u);

  // Make leaf 1 skip leaf 2 (next pointer lives at bytes [8..11]).
  Page bad = Snapshot(&pool, leaves[1]);
  EncodeLE<uint32_t>(bad.data() + 8, leaves[3]);
  ASSERT_TRUE(pool.WritePage(leaves[1], bad).ok());

  VerifyReport report = VerifyBTree(&pool, tree);
  EXPECT_FALSE(report.ok());
  // The chain no longer matches the tree's leaf order; the discrepancy is
  // anchored at the chain head.
  EXPECT_TRUE(report.Mentions(tree.first_leaf_page())) << report.ToString();
}

TEST(Verify, DetectsWrongPageTypeTag) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BuildTree(&pool);
  std::vector<PageId> leaves = tree.CollectLeafPages().value();
  ASSERT_GT(leaves.size(), 4u);

  PageId victim = leaves[4];
  Page bad = Snapshot(&pool, victim);
  bad.data()[0] = static_cast<uint8_t>(PageType::kBlobData);
  ASSERT_TRUE(pool.WritePage(victim, bad).ok());

  VerifyReport report = VerifyBTree(&pool, tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Mentions(victim)) << report.ToString();
}

TEST(Verify, DetectsImplausibleInternalFanout) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BuildTree(&pool);
  ASSERT_GT(tree.height(), 1);

  PageId root = tree.root_page();
  Page bad = Snapshot(&pool, root);
  EncodeLE<uint32_t>(bad.data() + 4, 0xFFFF);  // count >> capacity
  ASSERT_TRUE(pool.WritePage(root, bad).ok());

  VerifyReport report = VerifyBTree(&pool, tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Mentions(root)) << report.ToString();
}

TEST(Verify, DetectsChecksumFailureAsUnreadablePage) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BTree tree = BuildTree(&pool);
  std::vector<PageId> leaves = tree.CollectLeafPages().value();

  pool.ClearCache();
  ASSERT_TRUE(disk.CorruptPageByte(leaves[3], 1000).ok());
  VerifyReport report = VerifyBTree(&pool, tree);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Mentions(leaves[3])) << report.ToString();
}

TEST(Verify, DetectsBlobStructureBreaks) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 1 << 12);
  BlobStore store(&pool);
  std::vector<uint8_t> bytes(100000, 0x42);
  BlobId id = store.Write(bytes).value();
  ASSERT_TRUE(VerifyBlob(&pool, id).ok());

  // Phantom child: bump the root index's entry count by one.
  Page root = Snapshot(&pool, id.root);
  Page bad_root = root;
  uint32_t n = DecodeLE<uint32_t>(bad_root.data() + 4);
  EncodeLE<uint32_t>(bad_root.data() + 4, n + 1);
  ASSERT_TRUE(pool.WritePage(id.root, bad_root).ok());
  VerifyReport phantom = VerifyBlob(&pool, id);
  EXPECT_FALSE(phantom.ok());
  EXPECT_TRUE(phantom.Mentions(id.root)) << phantom.ToString();
  ASSERT_TRUE(pool.WritePage(id.root, root).ok());

  // Invalid index level byte.
  Page bad_level = root;
  bad_level.data()[1] = 3;
  ASSERT_TRUE(pool.WritePage(id.root, bad_level).ok());
  VerifyReport level = VerifyBlob(&pool, id);
  EXPECT_FALSE(level.ok());
  EXPECT_TRUE(level.Mentions(id.root)) << level.ToString();
  ASSERT_TRUE(pool.WritePage(id.root, root).ok());

  // Under-full interior data page.
  PageId first_data = DecodeLE<uint32_t>(root.data() + 8);
  Page data = Snapshot(&pool, first_data);
  Page bad_data = data;
  EncodeLE<uint32_t>(bad_data.data() + 4,
                     static_cast<uint32_t>(kBlobDataCapacity - 1));
  ASSERT_TRUE(pool.WritePage(first_data, bad_data).ok());
  VerifyReport shortfall = VerifyBlob(&pool, id);
  EXPECT_FALSE(shortfall.ok());
  EXPECT_TRUE(shortfall.Mentions(first_data)) << shortfall.ToString();
  ASSERT_TRUE(pool.WritePage(first_data, data).ok());
  EXPECT_TRUE(VerifyBlob(&pool, id).ok());
}

TEST(Verify, DatabaseWalkCoversTablesAndBlobs) {
  Database db;
  Schema schema = Schema::Create({{"id", ColumnType::kInt64, 0},
                                  {"payload", ColumnType::kVarBinaryMax, 0}})
                      .value();
  Table* table = db.CreateTable("v", std::move(schema)).value();
  std::vector<uint8_t> blob(50000, 0x77);
  for (int64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(table->Insert({k, blob}).ok());
  }
  EXPECT_TRUE(VerifyDatabase(&db).ok());

  // Rot one byte of some blob data page: the database walk must localize it.
  Row row = table->Lookup(7).value().value();
  BlobId id = std::get<BlobId>(row[1]);
  PageId data_page;
  {
    auto root = db.buffer_pool()->GetPage(id.root).value();
    data_page = DecodeLE<uint32_t>(root->data() + 8);
  }
  db.ClearCache();
  ASSERT_TRUE(db.disk()->CorruptPageByte(data_page, 4321).ok());
  VerifyReport report = VerifyDatabase(&db);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.Mentions(data_page)) << report.ToString();
}

// ---------------------------------------------------------------------------
// The acceptance workload: scans and blob reads under a 1 % fault rate.
// ---------------------------------------------------------------------------

TEST(FaultWorkload, ScanAndBlobReadsSurviveOnePercentFaultRate) {
  SimulatedDisk disk;
  BufferPool pool(&disk, 64);  // small pool: most fetches hit the disk
  BTree tree = BTree::Create(&pool, 64).value();
  {
    BTree::BulkLoader loader = tree.StartBulkLoad().value();
    std::vector<uint8_t> row(64);
    for (int64_t k = 0; k < 20000; ++k) {
      EncodeLE<int64_t>(row.data(), k);
      ASSERT_TRUE(loader.Add(row).ok());
    }
    ASSERT_TRUE(loader.Finish().ok());
  }
  BlobStore store(&pool);
  std::vector<BlobId> blobs;
  std::vector<uint8_t> payload(60000);
  for (int b = 0; b < 8; ++b) {
    for (size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(i + b);
    }
    blobs.push_back(store.Write(payload).value());
  }

  FaultConfig config;
  config.seed = 20260806;
  config.transient_read_error_rate = 0.01;
  config.bit_flip_rate = 0.01;
  FaultInjector* injector = disk.EnableFaults(config);

  int64_t rows_delivered = 0;
  int corruption_reports = 0;
  for (int round = 0; round < 8; ++round) {
    pool.ClearCache();

    auto cursor_or = tree.ScanAll();
    Status st = cursor_or.status();
    if (cursor_or.ok()) {
      BTree::Cursor cursor = std::move(cursor_or).value();
      while (cursor.valid()) {
        ++rows_delivered;
        st = cursor.Next();
        if (!st.ok()) break;
      }
    }
    if (!st.ok()) {
      // Permanent corruption must be reported as kCorruption and must name
      // the offending page.
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
      EXPECT_NE(st.message().find("page "), std::string::npos)
          << st.ToString();
      ++corruption_reports;
    }

    for (const BlobId& id : blobs) {
      auto bytes_or = store.ReadAll(id);
      if (!bytes_or.ok()) {
        EXPECT_EQ(bytes_or.status().code(), StatusCode::kCorruption)
            << bytes_or.status().ToString();
        EXPECT_NE(bytes_or.status().message().find("page "),
                  std::string::npos)
            << bytes_or.status().ToString();
        ++corruption_reports;
      } else {
        EXPECT_EQ(bytes_or->size(), payload.size());
      }
    }
  }

  // The workload ran to completion (no crash), delivered rows, and the fault
  // machinery demonstrably exercised both paths: transient faults were
  // healed by retry, and at least one permanent fault was injected.
  EXPECT_GT(rows_delivered, 0);
  const IoStats& stats = disk.stats();
  EXPECT_GT(stats.read_retries, 0);
  EXPECT_GT(stats.transient_faults_healed, 0);
  EXPECT_GT(injector->stats().transient_read_errors, 0);
  EXPECT_GT(injector->stats().bit_flips, 0);
  EXPECT_GT(corruption_reports, 0);
}

}  // namespace
}  // namespace sqlarray::storage
