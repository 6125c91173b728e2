// Tables and the catalog.
//
// A Table is a schema plus a clustered B+-tree of its rows; VARBINARY(MAX)
// column values are written through the shared BlobStore and stored as blob
// pointers. The Database owns the simulated disk, buffer pool, blob store,
// and the named tables — the whole "server instance" the benches run against.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "common/status.h"
#include "storage/blob.h"
#include "storage/btree.h"
#include "storage/schema.h"
#include "storage/snapshot.h"

namespace sqlarray::wal {
class WalManager;
}  // namespace sqlarray::wal

namespace sqlarray::mvcc {
class MvccManager;
}  // namespace sqlarray::mvcc

namespace sqlarray::storage {

/// A named clustered table.
class Table {
 public:
  static Result<std::unique_ptr<Table>> Create(std::string name,
                                               Schema schema,
                                               BufferPool* pool,
                                               BlobStore* blobs);

  /// Re-opens a table whose pages already exist on disk, rebuilding the
  /// B-tree metadata by walking from `root` — crash recovery's path back
  /// from a logged (name, schema, root) catalog entry to a live table.
  static Result<std::unique_ptr<Table>> Attach(std::string name,
                                               Schema schema, PageId root,
                                               BufferPool* pool,
                                               BlobStore* blobs);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int64_t row_count() const { return tree_.row_count(); }
  /// Pages used by the clustered index (excluding out-of-page blobs).
  int64_t data_page_count() const { return tree_.total_page_count(); }
  int64_t data_bytes() const { return data_page_count() * kPageSize; }

  /// Inserts a row. A std::vector<uint8_t> value supplied for a
  /// kVarBinaryMax column is written out-of-page automatically and replaced
  /// by its BlobId.
  Status Insert(Row row);

  /// Bulk loader for ascending-key loads into an empty table; writes each
  /// data page once (the fast path benches use to build large tables).
  class BulkInserter {
   public:
    /// Adds a row (keys strictly ascending).
    Status Add(Row row);
    /// Completes the load; required before reading the table.
    Status Finish() { return loader_.Finish(); }

   private:
    friend class Table;
    BulkInserter(Table* table, BTree::BulkLoader loader)
        : table_(table), loader_(std::move(loader)),
          encoded_(static_cast<size_t>(table->schema().row_size())) {}

    Table* table_;
    BTree::BulkLoader loader_;
    std::vector<uint8_t> encoded_;
  };

  /// Starts a bulk load; the table must be empty.
  Result<BulkInserter> StartBulkLoad();

  /// Point lookup by clustered key.
  Result<std::optional<Row>> Lookup(int64_t key);

  /// Deletes the row with `key`; returns false when absent. Out-of-page
  /// blob pages referenced by the row are reclaimed onto the blob store's
  /// free-list before the row itself is removed.
  Result<bool> Delete(int64_t key);

  /// Clustered-index metadata snapshot / restore (transaction rollback).
  BTree::Meta SnapshotIndexMeta() const { return tree_.SnapshotMeta(); }
  void RestoreIndexMeta(BTree::Meta meta) {
    tree_.RestoreMeta(std::move(meta));
  }

  /// Opens a full clustered index scan (the leaf-chain walk).
  Result<BTree::Cursor> Scan() const { return tree_.ScanAll(); }

  /// Leaf pages in chain order (work division for parallel scans).
  Result<std::vector<PageId>> CollectLeafPages() const {
    return tree_.CollectLeafPages();
  }

  /// The positions in CollectLeafPages() of the leaves that can hold a key
  /// in [lo, hi] (lo <= hi): a descent of the live tree.
  Result<std::pair<size_t, size_t>> SeekLeaves(int64_t lo, int64_t hi) const {
    return tree_.SeekLeaves(lo, hi);
  }

  /// The leaf map as of `snap` (not null), read from the snapshot's
  /// internal pages: a pure function of its page view, so morsel planning
  /// is deterministic at any worker count.
  Result<BTree::LeafMap> ReadLeafMap(PageSource* snap) const;

  /// Opens a cursor over a slice of the leaf pages through `pool` — one
  /// morsel of a scan, against the shared pool.
  Result<BTree::ChunkCursor> ScanChunk(BufferPool* pool,
                                       std::vector<PageId> pages) const {
    return tree_.ScanChunk(pool, std::move(pages));
  }

  /// Opens a morsel cursor whose pages come from `snap` (the snapshot owns
  /// its images). `snap` must not be null and must outlive the cursor.
  Result<BTree::ChunkCursor> ScanChunk(PageSource* snap,
                                       std::vector<PageId> pages) const;

  /// Encodes `row` for the clustered index WITHOUT spilling blob bytes:
  /// raw bytes bound for a VARBINARY(MAX) column are replaced by a
  /// placeholder BlobId {kNullPage, length}. Transaction shadow inserts use
  /// this so no shared blob pages are written before commit; the real spill
  /// happens when the operation replays at commit.
  Result<std::vector<uint8_t>> EncodeRowShadow(const Row& row) const;

  /// Opens a stream over an out-of-page blob value.
  Result<BlobStream> OpenBlob(const BlobId& id) const {
    return BlobStream::Open(blobs_->pool(), id);
  }

  /// Reads a whole out-of-page blob.
  Result<std::vector<uint8_t>> ReadBlob(const BlobId& id) const {
    return blobs_->ReadAll(id);
  }

  BlobStore* blob_store() { return blobs_; }

  /// The clustered index itself (structural-verifier access).
  const BTree& clustered_index() const { return tree_; }

 private:
  Table(std::string name, Schema schema, BTree tree, BlobStore* blobs)
      : name_(std::move(name)), schema_(std::move(schema)),
        tree_(std::move(tree)), blobs_(blobs) {}

  std::string name_;
  Schema schema_;
  BTree tree_;
  BlobStore* blobs_;
};

/// The "server": disk, cache, blob store, and named tables.
class Database {
 public:
  explicit Database(DiskConfig disk_config = {},
                    int64_t buffer_pool_pages = 8192)
      : disk_(disk_config), pool_(&disk_, buffer_pool_pages), blobs_(&pool_) {}

  /// Creates a table; fails if the name is taken.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Looks a table up by name.
  Result<Table*> GetTable(const std::string& name) const;

  /// Names of all tables, in catalog order (verifier / tooling access).
  std::vector<std::string> TableNames() const {
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto& [name, table] : tables_) names.push_back(name);
    return names;
  }

  /// Adds an already-constructed table to the catalog (crash recovery's
  /// re-attach path); fails if the name is taken.
  Status AdoptTable(std::unique_ptr<Table> table);

  /// Empties the catalog without touching any pages. Crash simulation uses
  /// this: after a "crash" only the disks survive, and recovery rebuilds
  /// the catalog from the log.
  void ClearCatalog() { tables_.clear(); }

  /// Drops all cached pages (cold-cache benchmark reset).
  void ClearCache() { pool_.ClearCache(); }

  /// Wires the write-ahead-log manager to this database. The storage layer
  /// never calls it — it is an opaque pointer the SQL layer retrieves to
  /// drive transactions; null when the database runs without a WAL.
  void AttachWal(wal::WalManager* wal) { wal_ = wal; }
  wal::WalManager* wal() const { return wal_; }

  /// Wires the MVCC manager, same opaque-pointer pattern as AttachWal. SQL
  /// sessions run transactions only through it, and refuse to run on a
  /// database that has a WAL but no MVCC manager.
  void AttachMvcc(mvcc::MvccManager* mvcc) { mvcc_ = mvcc; }
  mvcc::MvccManager* mvcc() const { return mvcc_; }

  SimulatedDisk* disk() { return &disk_; }
  BufferPool* buffer_pool() { return &pool_; }
  BlobStore* blob_store() { return &blobs_; }

 private:
  SimulatedDisk disk_;
  BufferPool pool_;
  BlobStore blobs_;
  std::map<std::string, std::unique_ptr<Table>> tables_;
  wal::WalManager* wal_ = nullptr;
  mvcc::MvccManager* mvcc_ = nullptr;
};

}  // namespace sqlarray::storage
