// The write-ahead-log manager: transactions, checkpoints, crash recovery.
//
// WalManager ties the log device to a storage::Database. On construction it
// switches the buffer pool into write-back mode and installs the WAL hooks,
// so from then on every page write is logged as a full-page image BEFORE it
// can reach the data disk (the WAL-before-data invariant; the pool enforces
// it at eviction and flush). It also logs every table that already exists,
// so recovery finds tables loaded before the WAL attached.
//
// This is the storage-level API. SQL sessions never open a transaction
// here: they run under mvcc::MvccManager, which takes an id with
// BeginDeferred() and applies its writes through AcquireApply()/Commit().
// Begin() is for code that drives the WAL directly (bench_wal, the WAL
// tests) and must not run while an MvccManager is attached.
//
// Transaction model — redo-only ARIES, simplified by two invariants:
//   * single writer: AcquireApply() (and Begin(), which calls it) takes the
//     manager's DML lock and Commit/Rollback (from the same thread) release
//     it, so applying transactions are serialized. Readers are unaffected.
//   * no-steal: every page a transaction touches stays PINNED (the manager
//     holds the pin with the page's before-image), so uncommitted data can
//     never be evicted to the data disk. Recovery therefore never needs
//     undo — replaying committed transactions' page images is enough.
// Rollback of a live transaction is pure in-memory undo: restore the
// byte-exact before-images, the B-tree metadata snapshots and the blob
// free-list snapshot. CREATE TABLE is not transactional: it is logged under
// txn id 0 and survives any rollback.
//
// Writes made OUTSIDE any transaction (bulk loads, direct storage calls)
// are logged under txn id 0 and always replayed: they stay durable once
// flushed, but a crash in the middle of a multi-page txn-0 operation can
// leave a torn structure — the documented cost of skipping a transaction.
//
// Checkpoints are fuzzy-free here thanks to the single-writer lock: with no
// transaction open, flush the log, flush every dirty page (one by one, in
// sorted order — each step is a crash site the torture tests hit), append a
// checkpoint record carrying the full catalog and blob free-list to a fresh
// log page, and finally point the log header at it. A crash between any two
// steps leaves the PREVIOUS checkpoint valid; replay is just longer.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"
#include "wal/log.h"

namespace sqlarray::wal {

struct WalConfig {
  /// Cost model for the log's own disk.
  storage::DiskConfig log_disk;
  /// Group-commit window: how long a flush leader lingers collecting
  /// concurrent committers before issuing the physical flush. 0 = flush
  /// immediately (every commit pays its own flush).
  int64_t group_commit_window_us = 0;
};

/// Callbacks an upper layer (MVCC) installs to track crash simulation and
/// recovery. The dependency points upward — wal never links mvcc — so the
/// observer is how version state learns it must be discarded (crash) or
/// re-seeded (recovery, with the log's resume LSN).
struct WalObserver {
  std::function<void()> on_crash;
  std::function<void(Lsn resume_lsn)> on_recovered;
};

/// What one Recover() run did.
struct RecoveryStats {
  int64_t records_scanned = 0;
  int64_t pages_redone = 0;
  int64_t txns_committed = 0;
  /// Transactions with log records but no commit record (in-flight at the
  /// crash, or rolled back) — their writes were NOT replayed.
  int64_t txns_lost = 0;
  int64_t tables_attached = 0;
  int64_t dead_bytes_skipped = 0;
  bool truncated_tail = false;
  bool used_checkpoint = false;
};

class WalManager {
 public:
  /// Attaches to `db`: installs the pool hooks, enables write-back, and
  /// registers itself via Database::AttachWal. Tables that exist already
  /// are logged as created and forced to the log device before this
  /// returns; attach_status() reports a failure to do so.
  explicit WalManager(storage::Database* db, WalConfig config = {});
  /// Clean shutdown: flushes the log and all dirty pages, then detaches.
  ~WalManager();

  WalManager(const WalManager&) = delete;
  WalManager& operator=(const WalManager&) = delete;

  /// BeginDeferred() then AcquireApply(): starts a transaction holding the
  /// DML lock until Commit/Rollback (which must run on this thread). Returns
  /// the transaction id. Storage-level callers only (see file comment).
  Result<uint64_t> Begin();

  /// Allocates a transaction id and logs its kBegin WITHOUT taking the DML
  /// lock or making it the active transaction. MVCC transactions use this:
  /// their writes live in private shadow state while other transactions
  /// commit freely; at commit, AcquireApply() turns the id into the active
  /// (applying) transaction. A deferred id that never reaches AcquireApply
  /// simply counts as one lost transaction at recovery.
  Result<uint64_t> BeginDeferred();

  /// Takes the DML lock and installs `txn` (allocated by BeginDeferred) as
  /// the active transaction — no kBegin is appended (it already was). From
  /// here page writes are captured/pinned under its id and Commit/Rollback
  /// on this thread resolve it.
  Status AcquireApply(uint64_t txn);

  /// Logs the commit record, releases the transaction's pins and the DML
  /// lock, then forces the log (the group-commit point). The transaction is
  /// durable when this returns OK. `commit_lsn`, when non-null, receives
  /// the commit record's end LSN — the point in log order at which the
  /// transaction's effects become visible (MVCC stamps versions with it).
  Status Commit(uint64_t txn, Lsn* commit_lsn = nullptr);

  /// In-memory undo: restores before-images, index metadata and the blob
  /// free-list; releases the DML lock. Nothing needs to be flushed — an
  /// unflushed transaction simply vanishes.
  Status Rollback(uint64_t txn);

  /// Must be called before a transaction first mutates `table`: snapshots
  /// the index metadata for rollback. No-op outside a transaction and on
  /// repeat calls.
  Status NoteTableTouched(uint64_t txn, storage::Table* table);

  /// Logs a CREATE TABLE (schema + root) under txn id 0 so recovery can
  /// re-attach it, whatever happens to any open transaction. Call right
  /// after Database::CreateTable.
  Status NoteTableCreated(storage::Table* table);

  /// Takes a checkpoint (see file comment). Must not be called with a
  /// transaction open on this thread (the DML lock would deadlock).
  Status Checkpoint();

  /// Crash recovery: rebuilds the database from the data disk + log.
  /// Idempotent — running it twice yields byte-identical data pages.
  Result<RecoveryStats> Recover();

  /// Simulates the process dying: drops every volatile structure (cache,
  /// catalog, free-list, unflushed log bytes) while both disks survive.
  /// Call Recover() afterwards. Any open transaction must belong to the
  /// calling thread (its DML lock is released here).
  void SimulateCrash();

  /// Arms a simulated crash inside the NEXT Checkpoint() call, which then
  /// returns kInternal after the given step:
  ///   1 = log flushed   2 = first dirty page flushed (mid data flush)
  ///   3 = all dirty pages flushed   4 = checkpoint record appended,
  ///       header not yet updated
  /// 0 disarms. The caller then drives SimulateCrash()/Recover().
  void set_checkpoint_crash_step(int step) { checkpoint_crash_step_ = step; }

  /// Arms a simulated crash inside the NEXT Commit() call:
  ///   1 = before the commit record is appended
  ///   2 = commit record appended, log not yet force-flushed
  /// The failed Commit returns kInternal and leaves the transaction OPEN
  /// (before-images pinned, DML lock held) so the caller can drive
  /// SimulateCrash()/Recover() from the same thread. 0 disarms.
  void set_commit_crash_step(int step) { commit_crash_step_ = step; }

  /// Runs `fn` holding the DML lock with NO transaction active: its page
  /// writes are logged under txn 0 (always replayed) and cannot interleave
  /// with a transaction's apply. MVCC DDL and bulk maintenance use this.
  Status WithDmlLock(const std::function<Status()>& fn);

  /// A barrier LSN: briefly takes the DML lock and returns the writer's
  /// next LSN. Every transaction that committed before the call sits
  /// strictly below it — MVCC advances its visibility horizon to this
  /// after non-transactional work (DDL, bulk loads).
  Result<Lsn> QuiescentLsn();

  /// Installs (or clears, with `{}`) the crash/recovery observer.
  void SetObserver(WalObserver obs) { observer_ = std::move(obs); }

  /// Whether the tables present at attach reached the log. Sessions refuse
  /// to run statements on a log that failed here.
  const Status& attach_status() const { return attach_status_; }

  const RecoveryStats& last_recovery() const { return last_recovery_; }
  LogDevice* log_device() { return &device_; }
  LogWriter* log_writer() { return &writer_; }
  storage::Database* db() { return db_; }

 private:
  struct ActiveTxn {
    uint64_t id = 0;
    struct BeforeImage {
      storage::Page image;
      storage::BufferPool::PageState state;
      storage::PinnedPage pin;  ///< no-steal: blocks eviction until resolve
    };
    std::map<storage::PageId, BeforeImage> before;
    std::map<std::string, storage::BTree::Meta> touched;
    std::vector<storage::PageId> free_list_snapshot;
  };

  /// The buffer-pool hook: captures the before-image on first touch and
  /// appends the full-page-image record. Returns the record's end LSN.
  Result<Lsn> LogPageWrite(storage::PageId id, const storage::Page& page);

  /// Releases the current transaction's state and the DML lock.
  void FinishTxnLocked();

  storage::Database* db_;
  storage::BufferPool* pool_;
  LogDevice device_;
  LogWriter writer_;

  /// Serializes applying transactions; held from AcquireApply to
  /// Commit/Rollback.
  std::mutex dml_mu_;
  /// Guards current_txn_/active_ against the page-write hook, which can
  /// fire from any thread doing txn-0 writes.
  mutable std::mutex txn_mu_;
  std::unique_ptr<ActiveTxn> active_;
  uint64_t next_txn_id_ = 1;

  int checkpoint_crash_step_ = 0;
  int commit_crash_step_ = 0;
  RecoveryStats last_recovery_;
  Status attach_status_;
  WalObserver observer_;

  obs::Counter* reg_commits_;
  obs::Counter* reg_aborts_;
  obs::Counter* reg_checkpoints_;
  obs::Counter* reg_recoveries_;
  obs::Counter* reg_recovery_pages_;
  obs::Counter* reg_recovery_records_;
};

}  // namespace sqlarray::wal
