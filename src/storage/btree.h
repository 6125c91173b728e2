// Clustered B+-tree over fixed-width rows, keyed by a BIGINT.
//
// Every table in the mini engine is a clustered index — the structure the
// Table 1 queries scan ("a simple clustered index scan operation reading all
// pages of the data table"). Leaves form a sibling chain so a full scan is a
// sequential page walk; lookups descend from the root.
//
// Page layouts (little-endian):
//   leaf    : [0]=kBTreeLeaf [1..3] rsvd [4..7] row count [8..11] next leaf
//             [12..15] rsvd, rows at 16..
//   internal: [0]=kBTreeInternal [1..3] rsvd [4..7] child count,
//             entries at 16.. of (int64 first_key, uint32 child) = 12 bytes
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"

namespace sqlarray::storage {

/// A pluggable page fetch: resolves a page id to a pinned image. Snapshot
/// scans and transaction shadow trees substitute their own (version chain,
/// overlay map, log-replay map) for the buffer pool's GetPage.
using PageFetcher = std::function<Result<PinnedPage>(PageId)>;

/// Redirectable page IO for transaction-private shadow trees: fetch may
/// consult an overlay map before the shared state, writes land in the
/// overlay instead of the shared pool, and alloc draws fresh page ids from
/// the shared allocator. The struct is owned by the caller and must outlive
/// every tree it is installed into (trees hold a raw pointer so copies stay
/// cheap and self-consistent).
struct PageIO {
  PageFetcher fetch;
  std::function<Status(PageId, const Page&)> write;
  std::function<PageId()> alloc;
};

/// Offset where payload begins on both page kinds.
inline constexpr int64_t kBTreePageHeader = 16;

/// Modeled SQL Server page header size (bytes reserved per page when
/// computing row capacity, so page counts match the real engine's).
inline constexpr int64_t kSqlPageHeaderBytes = 96;
/// Modeled per-row overhead (record header + slot-array entry).
inline constexpr int64_t kSqlRowOverheadBytes = 9;

/// A clustered B+-tree of fixed-size rows whose first 8 bytes are the
/// little-endian int64 key.
class BTree {
 public:
  /// Creates an empty tree. `row_size` must leave room for at least two rows
  /// per leaf.
  static Result<BTree> Create(BufferPool* pool, int64_t row_size);

  /// Attaches to an EXISTING tree rooted at `root`, rebuilding the
  /// in-memory metadata (height, first leaf, row count, allocation map) by
  /// walking the on-disk structure. This is how crash recovery re-opens
  /// tables: none of the metadata is persisted, only the pages are.
  static Result<BTree> Attach(BufferPool* pool, int64_t row_size, PageId root);

  /// Installs (or clears, with nullptr) redirected page IO. A transaction's
  /// shadow tree is a plain copy of the shared tree with an overlay-backed
  /// PageIO installed; the shared tree itself keeps io_ == nullptr and goes
  /// straight to the buffer pool.
  void SetIO(const PageIO* io) { io_ = io; }

  /// The in-memory metadata a transaction snapshots before mutating the
  /// tree, so rollback can restore it byte-exactly alongside the page
  /// before-images.
  struct Meta {
    PageId root = kNullPage;
    PageId first_leaf = kNullPage;
    int height = 1;
    int64_t row_count = 0;
    int64_t leaf_pages = 0;
    int64_t internal_pages = 0;
    std::vector<PageId> leaf_ids;
  };
  Meta SnapshotMeta() const {
    return Meta{root_,      first_leaf_,     height_,  row_count_,
                leaf_pages_, internal_pages_, leaf_ids_};
  }
  void RestoreMeta(Meta meta) {
    root_ = meta.root;
    first_leaf_ = meta.first_leaf;
    height_ = meta.height;
    row_count_ = meta.row_count;
    leaf_pages_ = meta.leaf_pages;
    internal_pages_ = meta.internal_pages;
    leaf_ids_ = std::move(meta.leaf_ids);
  }

  int64_t row_size() const { return row_size_; }
  int64_t row_count() const { return row_count_; }
  int64_t leaf_page_count() const { return leaf_pages_; }
  int64_t total_page_count() const { return leaf_pages_ + internal_pages_; }
  int height() const { return height_; }
  /// Rows per leaf page.
  int64_t leaf_capacity() const { return leaf_capacity_; }
  /// (first_key, child) entries per internal page.
  int64_t internal_capacity() const { return internal_capacity_; }
  /// Root / first-leaf page ids (structural-verifier access).
  PageId root_page() const { return root_; }
  PageId first_leaf_page() const { return first_leaf_; }

  /// Inserts a row (its embedded key must be unique). Rows arriving in
  /// ascending key order fill pages densely via a fast append path.
  Status Insert(std::span<const uint8_t> row);

  /// Point lookup; returns false when the key is absent.
  Result<bool> Lookup(int64_t key, std::vector<uint8_t>* row_out);

  /// Removes the row with `key`; returns false when absent. Leaves are not
  /// rebalanced (emptied pages stay in the chain and scans skip them) —
  /// adequate for the workloads here, like many production engines that
  /// defer reclamation to rebuilds.
  Result<bool> Delete(int64_t key);

  /// Bulk loader for ascending-key loads: fills leaves densely and builds
  /// the internal levels bottom-up, writing each page exactly once. Usable
  /// only on an EMPTY tree; Finish() must be called before any read.
  class BulkLoader {
   public:
    /// Appends a row; its key must exceed every key added so far.
    Status Add(std::span<const uint8_t> row);
    /// Flushes the tail leaf and builds the internal levels.
    Status Finish();

   private:
    friend class BTree;
    explicit BulkLoader(BTree* tree);

    Status FlushLeaf();

    BTree* tree_;
    Page leaf_;
    uint32_t leaf_count_ = 0;
    PageId leaf_id_ = kNullPage;
    int64_t last_key_ = 0;
    bool any_ = false;
    bool finished_ = false;
    /// (first_key, page) per flushed leaf, for the internal build.
    std::vector<std::pair<int64_t, PageId>> leaf_index_;
  };

  /// Starts a bulk load. The tree must be empty.
  Result<BulkLoader> StartBulkLoad();

  /// Forward cursor over the whole leaf chain (the clustered index scan).
  class Cursor {
   public:
    bool valid() const { return valid_; }
    /// Current row bytes (points into the cursor's page copy).
    std::span<const uint8_t> row() const;
    /// Advances; clears valid() at the end.
    Status Next();

   private:
    friend class BTree;
    BufferPool* pool_ = nullptr;
    /// When set, pages come from here instead of pool_ (shadow-tree scans).
    PageFetcher fetch_;
    int64_t row_size_ = 0;
    Page page_;
    uint32_t count_ = 0;
    uint32_t pos_ = 0;
    PageId next_ = kNullPage;
    bool valid_ = false;

    Status LoadLeaf(PageId id);
  };

  /// Opens a scan cursor at the first row. A tree with redirected IO scans
  /// through its fetcher (read-your-writes for shadow trees). The executor
  /// reads through ChunkCursor; this walk serves the structural verifier
  /// and direct storage callers.
  Result<Cursor> ScanAll() const;

  /// The leaf level as the internal pages list it: leaf ids in chain order,
  /// each with the lowest key the descent can route to it (INT64_MIN for
  /// the first leaf).
  struct LeafMap {
    std::vector<PageId> pages;
    std::vector<int64_t> low_keys;

    /// The half-open index range of the leaves that can hold a key in
    /// [lo, hi] (lo <= hi): the leaves Lookup(lo) through Lookup(hi) land
    /// on.
    std::pair<size_t, size_t> Span(int64_t lo, int64_t hi) const;
  };

  /// Reads the leaf map of the tree rooted at `root` as seen through
  /// `fetch`: every internal page, plus the first leaf to find the leaf
  /// level. The snapshot equivalent of CollectLeafPages(), a pure function
  /// of the page view, so morsel planning is deterministic at any worker
  /// count.
  static Result<LeafMap> LeafMapVia(const PageFetcher& fetch, PageId root);

  /// Returns the leaf page ids in chain order from the in-memory
  /// allocation map — the work-division step of a parallel scan. (A real
  /// engine reads this from IAM/allocation pages; the map models that
  /// metadata without charging data-page I/O.)
  Result<std::vector<PageId>> CollectLeafPages() const {
    return leaf_ids_;
  }

  /// The half-open range of positions in CollectLeafPages() of the leaves
  /// that can hold a key in [lo, hi] (lo <= hi). One descent serves both
  /// bounds until their paths part, so a point seek reads `height - 1`
  /// internal pages and no leaf.
  Result<std::pair<size_t, size_t>> SeekLeaves(int64_t lo, int64_t hi) const;

  /// A cursor over an explicit list of leaf pages, reading through a
  /// caller-supplied buffer pool or page fetcher. Every executor scan runs
  /// one ChunkCursor per morsel (a slice of the planned leaf list) against
  /// the SHARED buffer pool or the statement's snapshot.
  class ChunkCursor {
   public:
    bool valid() const { return valid_; }
    std::span<const uint8_t> row() const {
      return std::span<const uint8_t>(
          page_.data() + kBTreePageHeader + pos_ * row_size_,
          static_cast<size_t>(row_size_));
    }
    Status Next();
    /// Copies up to `max_rows` consecutive rows into `out` (row-major,
    /// contiguous) and advances past them — one memcpy per leaf-page run
    /// instead of a row()/Next() pair per row, the scan bodies' fill path.
    /// Returns the number of rows copied (0 only at the end of the list);
    /// page loads happen at exactly the row positions Next() loads them.
    Result<int32_t> CopyRows(int32_t max_rows, uint8_t* out);

   private:
    friend class BTree;
    Status LoadNextPage();

    BufferPool* pool_ = nullptr;
    /// Snapshot fetch; when set, pool_ is unused.
    PageFetcher fetch_;
    int64_t row_size_ = 0;
    std::vector<PageId> pages_;
    size_t page_idx_ = 0;
    Page page_;
    uint32_t count_ = 0;
    uint32_t pos_ = 0;
    bool valid_ = false;
  };

  /// Opens a cursor over `pages` (a slice of CollectLeafPages()).
  Result<ChunkCursor> ScanChunk(BufferPool* pool,
                                std::vector<PageId> pages) const;

  /// Opens a cursor over `pages` reading every page through `fetch` — the
  /// morsel-worker path of a snapshot scan (the fetcher owns its images:
  /// chain entries, overlays, log-replay maps).
  static Result<ChunkCursor> ScanChunkVia(PageFetcher fetch,
                                          std::vector<PageId> pages,
                                          int64_t row_size);

 private:
  BTree(BufferPool* pool, int64_t row_size)
      : pool_(pool), row_size_(row_size) {}

  /// Page IO dispatch: through io_ when redirected, else the pool.
  Result<PinnedPage> GetP(PageId id) const {
    return io_ != nullptr ? io_->fetch(id) : pool_->GetPage(id);
  }
  Status WriteP(PageId id, const Page& page) {
    return io_ != nullptr ? io_->write(id, page) : pool_->WritePage(id, page);
  }
  PageId AllocP() {
    return io_ != nullptr ? io_->alloc() : pool_->AllocatePage();
  }

  struct SplitResult {
    bool split = false;
    int64_t new_first_key = 0;
    PageId new_page = kNullPage;
  };

  Result<SplitResult> InsertRecurse(PageId node, int level,
                                    std::span<const uint8_t> row,
                                    int64_t key);

  BufferPool* pool_;
  /// Redirected page IO (shadow trees); null for the shared tree.
  const PageIO* io_ = nullptr;
  int64_t row_size_;
  int64_t leaf_capacity_ = 0;
  int64_t internal_capacity_ = 0;
  PageId root_ = kNullPage;
  PageId first_leaf_ = kNullPage;
  int height_ = 1;  ///< levels including the leaf level
  int64_t row_count_ = 0;
  int64_t leaf_pages_ = 0;
  int64_t internal_pages_ = 0;
  /// Allocation map: leaf page ids in chain order (IAM-page stand-in).
  std::vector<PageId> leaf_ids_;
};

}  // namespace sqlarray::storage
