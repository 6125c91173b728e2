// MVCC: snapshot isolation and time-travel reads over the WAL.
//
// The manager layers multi-versioning ON TOP of the existing single-writer
// redo-only WAL without changing the disk format, the log record codec, or
// recovery. The trick is WHERE writes live before commit:
//
//   * An MVCC transaction never touches shared state. Its inserts/deletes
//     go to a private SHADOW B-tree — a copy of the shared tree with
//     overlay-backed page IO — which gives read-your-writes and duplicate-
//     key detection, and to an ordered logical op list.
//   * At commit the op list REPLAYS through the plain Table::Insert/Delete
//     path under the WAL's existing DML lock (AcquireApply), so the bytes
//     that reach the log and the data disk are exactly what a plain
//     serialized execution would have produced. Recovery is unchanged.
//   * The buffer pool is copy-on-write: every page replacement hands the
//     superseded immutable image to the manager (VersionSink), which chains
//     it under the LSN interval it was current for. Snapshot readers serve
//     pages from the current pool when unchanged since their LSN, else
//     from the chain — readers never block writers and vice versa.
//
// Write conflicts are first-updater-wins: claiming a (table, key) that a
// live transaction owns, or that committed past the claimant's begin LSN,
// fails with kWriteConflict carrying retry_after_ms. Version GC is keyed
// off the oldest active snapshot. AS OF <lsn> reads rebuild an arbitrary
// historical view from the log's full-page images, so they survive both
// restart and chain GC.
//
// It is the only transaction manager SQL sessions use: a sql::Session runs
// either on a bare database (no WAL, no transactions) or on WAL + MVCC, and
// refuses every statement on a WAL without this manager. DDL is not
// transactional: RunDdl makes it visible at once and the WAL logs it under
// txn id 0. WalManager::Begin() is the WAL's storage-level API and must not
// run while an MvccManager is attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/snapshot.h"
#include "storage/table.h"
#include "wal/wal.h"

namespace sqlarray::mvcc {

struct MvccConfig {
  /// Version-chain memory budget. When retained history exceeds this, new
  /// snapshot acquisition fails with kResourceExhausted (backpressure:
  /// long-lived snapshots are what pins history).
  int64_t history_budget_bytes = 256ll << 20;
  /// retry_after_ms handed to first-updater-wins losers.
  int64_t conflict_retry_ms = 5;
};

/// MVCC runtime statistics (mirrors the obs registry, test-friendly).
struct MvccStats {
  int64_t snapshots_active = 0;
  int64_t versions_created = 0;
  int64_t versions_gc = 0;
  int64_t write_conflicts = 0;
  int64_t history_bytes = 0;
  storage::Lsn oldest_snapshot_lsn = 0;
  storage::Lsn visible_lsn = 0;
};

class MvccManager : public storage::VersionSink {
 public:
  /// Attaches to a WAL-managed database: installs the buffer pool's
  /// version sink, the WAL crash/recovery observer, and registers itself
  /// via Database::AttachMvcc. `db` and `wal` must outlive the manager.
  MvccManager(storage::Database* db, wal::WalManager* wal,
              MvccConfig config = {});
  ~MvccManager() override;

  MvccManager(const MvccManager&) = delete;
  MvccManager& operator=(const MvccManager&) = delete;

  // --- Transactions -------------------------------------------------------

  /// Starts an MVCC transaction (no locks held; many may be open at once).
  Result<uint64_t> Begin();

  /// Buffers an insert: claims the row key (first-updater-wins), applies it
  /// to the transaction's shadow tree (duplicate detection, read-your-
  /// writes), and queues the op for commit replay. Blob bytes are NOT
  /// spilled until commit.
  Status ApplyInsert(uint64_t txn, storage::Table* table, storage::Row row);

  /// Buffers a delete; returns false when the key is absent from the
  /// transaction's view of the table.
  Result<bool> ApplyDelete(uint64_t txn, storage::Table* table, int64_t key);

  /// Replays the transaction's ops through the plain write path under the
  /// WAL's DML lock, logs the commit, stamps the claims and version
  /// horizon with the commit LSN, and GCs history. `commit_lsn_out`
  /// (optional) receives the commit LSN. An empty transaction commits
  /// without logging anything.
  Status Commit(uint64_t txn, storage::Lsn* commit_lsn_out = nullptr);

  /// Discards the transaction: shadow state and claims evaporate. Nothing
  /// shared was touched, so there is nothing to undo.
  Status Rollback(uint64_t txn);

  bool TxnActive(uint64_t txn) const;

  // --- Snapshots ----------------------------------------------------------

  /// A consistent read view at the current visibility horizon. The view
  /// registers as an active snapshot (pinning history) until destroyed;
  /// it must not outlive the manager. Fails with kResourceExhausted when
  /// retained history exceeds the configured budget.
  Result<std::shared_ptr<storage::PageSource>> AcquireSnapshot();

  /// A historical view AS OF `lsn`, rebuilt from the log's full-page
  /// images — independent of the version chains, so it works across
  /// restart/recovery and after GC. Pages never logged (written before the
  /// WAL attached) fall back to the data disk, and roots of tables with no
  /// logged catalog entry fall back to the in-memory root history.
  Result<std::shared_ptr<storage::PageSource>> OpenAsOf(storage::Lsn lsn);

  /// AS OF CHECKPOINT: resolves the last durable checkpoint's LSN.
  Result<std::shared_ptr<storage::PageSource>> OpenAsOfCheckpoint();

  /// An open transaction's private view: overlay pages first (its shadow
  /// writes), then chain visibility at the view's LSN. Statements inside
  /// the transaction scan through this (read-your-writes). Registers as an
  /// active snapshot (pinning history) until destroyed.
  Result<std::shared_ptr<storage::PageSource>> TxnView(uint64_t txn);

  // --- DDL / maintenance --------------------------------------------------

  /// Runs `fn` (typically CREATE TABLE + NoteTableCreated) serialized
  /// against commit replay under the WAL's DML lock. MVCC DDL is
  /// non-transactional: it is visible immediately on return.
  Status RunDdl(const std::function<Status()>& fn);

  /// Re-snapshots every table root and advances the visibility horizon to
  /// the WAL's quiescent LSN. Call after non-transactional bulk loads.
  Status RefreshVisible();

  /// Current visibility horizon (the LSN a fresh snapshot would get).
  storage::Lsn visible_lsn() const {
    return visible_.load(std::memory_order_acquire);
  }

  MvccStats Stats() const;

  /// Arms a simulated crash inside the NEXT Commit() call:
  ///   1 = before the replay starts (nothing shared touched)
  ///   2 = after the first op replays (mid-apply, WAL txn open)
  ///   3 = all ops replayed, commit record not yet written
  /// The failed Commit returns kInternal with the WAL transaction left
  /// open; drive WalManager::SimulateCrash()/Recover() from this thread.
  void set_commit_crash_step(int step) { commit_crash_step_ = step; }

  // VersionSink: called by the buffer pool (under its shard lock) with the
  // immutable image a page replacement superseded.
  void OnPageWrite(storage::PageId id,
                   std::shared_ptr<const storage::Page> old_image,
                   storage::Lsn new_lsn) override;

 private:
  friend class LiveSnapshotView;
  friend class TxnSnapshotView;

  struct TxnState {
    uint64_t id = 0;
    storage::Lsn begin_lsn = 0;
    /// Shadow-written pages (page id -> private image). Reads check here
    /// before the shared pool.
    std::unordered_map<storage::PageId, std::shared_ptr<const storage::Page>>
        overlay;
    storage::PageIO io;
    /// Per-table shadow trees (copies of the shared tree with `io`).
    std::map<std::string, storage::BTree> shadows;
    struct Op {
      bool is_insert = false;
      std::string table;
      storage::Row row;  ///< insert: the ORIGINAL row (blobs unspilled)
      int64_t key = 0;   ///< delete
    };
    std::vector<Op> ops;
    std::vector<std::pair<std::string, int64_t>> claims;
  };

  struct Claim {
    uint64_t owner = 0;            ///< live claimant txn id; 0 = none
    storage::Lsn committed_lsn = 0;  ///< last commit that wrote this key
  };

  struct Version {
    storage::Lsn written_lsn = 0;  ///< LSN at which this image became current
    std::shared_ptr<const storage::Page> image;
  };

  /// Looks a live transaction up (mu_ taken inside). The returned pointer
  /// stays valid while the owning session thread keeps the txn open.
  Result<TxnState*> FindTxn(uint64_t txn) const;

  /// First-updater-wins claim; records the key in `t->claims` on success.
  Status ClaimKey(TxnState* t, const std::string& table, int64_t key);

  /// Returns the shadow tree for `table`, copying the shared tree on first
  /// touch.
  Result<storage::BTree*> ShadowFor(TxnState* t, storage::Table* table);

  /// Serves page `id` as of snapshot `lsn`: the pool's current image when
  /// the page has not moved past the snapshot, else the right chain entry.
  Result<storage::PinnedPage> FetchAt(storage::PageId id, storage::Lsn lsn);

  /// Newest root of `table` at or below `lsn` (mu_ held by caller).
  Result<storage::PageId> RootAtLocked(const std::string& table,
                                       storage::Lsn lsn) const;

  /// Drops chain entries no active snapshot can reach (mu_ held).
  void RunGcLocked();

  /// Removes committed claim entries no possible claimant can conflict
  /// with (mu_ held).
  void PruneClaimsLocked();

  /// Registers visible_ as an active snapshot (pinning history) and
  /// returns it (mu_ held).
  storage::Lsn RegisterSnapshotLocked();

  /// Releases a dead transaction's key claims and erases its state; used
  /// by Rollback and by Commit's failure paths, where leaking an owned
  /// claim would wedge its keys in WRITE_CONFLICT forever.
  void AbandonTxn(uint64_t txn);
  void AbandonTxnLocked(
      std::map<uint64_t, std::unique_ptr<TxnState>>::iterator it);

  void ReleaseSnapshot(storage::Lsn lsn);

  void OnWalCrash();
  void OnWalRecovered(storage::Lsn resume_lsn);

  /// Re-seeds root history from the live catalog at `lsn` (mu_ held).
  void SeedRootsLocked(storage::Lsn lsn);

  storage::Database* db_;
  wal::WalManager* wal_;
  storage::BufferPool* pool_;
  MvccConfig config_;

  /// Leaf lock: taken under the pool's shard lock (OnPageWrite) and the
  /// WAL's DML lock; never take pool or WAL locks while holding it.
  mutable std::mutex mu_;
  std::unordered_map<storage::PageId, std::vector<Version>> chains_;
  /// Last write LSN per page; SURVIVES eviction (the pool's entry does
  /// not), which is what makes the visibility check sound.
  std::unordered_map<storage::PageId, storage::Lsn> latest_lsn_;
  std::multiset<storage::Lsn> snapshots_;
  std::map<std::string, std::vector<std::pair<storage::Lsn, storage::PageId>>>
      root_history_;
  std::map<std::pair<std::string, int64_t>, Claim> claims_;
  std::map<uint64_t, std::unique_ptr<TxnState>> txns_;
  int64_t history_bytes_ = 0;

  std::atomic<storage::Lsn> visible_{0};
  // Atomic: concurrent committers race to consume an armed step, and the
  // test harness arms it from a thread that is not the committer.
  std::atomic<int> commit_crash_step_{0};

  obs::Counter* reg_versions_created_;
  obs::Counter* reg_versions_gc_;
  obs::Counter* reg_write_conflicts_;
  obs::Gauge* reg_snapshots_active_;
  obs::Gauge* reg_oldest_snapshot_;
  obs::Gauge* reg_history_bytes_;
};

}  // namespace sqlarray::mvcc
