#include "wal/wal.h"

#include <algorithm>
#include <set>
#include <utility>

namespace sqlarray::wal {

WalManager::WalManager(storage::Database* db, WalConfig config)
    : db_(db),
      pool_(db->buffer_pool()),
      device_(config.log_disk),
      writer_(&device_, config.group_commit_window_us),
      reg_commits_(obs::MetricsRegistry::Global().GetCounter("wal.commits")),
      reg_aborts_(obs::MetricsRegistry::Global().GetCounter("wal.aborts")),
      reg_checkpoints_(
          obs::MetricsRegistry::Global().GetCounter("wal.checkpoints")),
      reg_recoveries_(
          obs::MetricsRegistry::Global().GetCounter("wal.recoveries")),
      reg_recovery_pages_(obs::MetricsRegistry::Global().GetCounter(
          "wal.recovery.pages_redone")),
      reg_recovery_records_(obs::MetricsRegistry::Global().GetCounter(
          "wal.recovery.records_scanned")) {
  storage::WalPageHook hook;
  hook.log_page_write = [this](storage::PageId id, const storage::Page& page) {
    return LogPageWrite(id, page);
  };
  hook.flush_log_to = [this](storage::Lsn lsn) {
    return writer_.FlushTo(lsn, /*gather=*/false);
  };
  pool_->SetWalHook(std::move(hook));
  pool_->SetWriteBack(true);
  db_->AttachWal(this);
  // Tables that exist already were written through to the data disk, but
  // recovery rebuilds the catalog from the log alone: log each one, as if
  // it had been created now, and force the records with one flush, so a
  // crash before the first commit still recovers them.
  const std::vector<std::string> tables = db_->TableNames();
  for (const std::string& name : tables) {
    if (attach_status_.ok()) {
      attach_status_ = NoteTableCreated(db_->GetTable(name).value());
    }
  }
  if (!tables.empty() && attach_status_.ok()) {
    attach_status_ = writer_.FlushAll();
  }
}

WalManager::~WalManager() {
  // Clean shutdown: everything logged and every dirty page on the data
  // disk, so the database is whole even without replaying this log.
  (void)writer_.FlushAll();
  (void)pool_->FlushAllDirty();
  pool_->SetWalHook(storage::WalPageHook{});
  pool_->SetWriteBack(false);
  db_->AttachWal(nullptr);
}

Result<Lsn> WalManager::LogPageWrite(storage::PageId id,
                                     const storage::Page& page) {
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (active_ != nullptr && active_->before.count(id) == 0) {
      // First touch inside a transaction: capture the byte-exact previous
      // image (and dirty state) for rollback, and keep the pin so the
      // uncommitted replacement can never be evicted to the data disk.
      ActiveTxn::BeforeImage bi;
      bi.state = pool_->GetPageState(id);
      SQLARRAY_ASSIGN_OR_RETURN(storage::PinnedPage pin, pool_->GetPage(id));
      bi.image = *pin;
      bi.pin = std::move(pin);
      active_->before.emplace(id, std::move(bi));
    }
  }
  WalRecord rec;
  rec.type = RecordType::kPageWrite;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    rec.txn = active_ != nullptr ? active_->id : kSystemTxn;
  }
  rec.page_id = id;
  rec.page_image = page;
  Lsn end = 0;
  SQLARRAY_ASSIGN_OR_RETURN(Lsn start, writer_.Append(EncodeRecord(rec), &end));
  (void)start;
  return end;
}

Result<uint64_t> WalManager::Begin() {
  SQLARRAY_ASSIGN_OR_RETURN(uint64_t id, BeginDeferred());
  SQLARRAY_RETURN_IF_ERROR(AcquireApply(id));
  return id;
}

Result<uint64_t> WalManager::BeginDeferred() {
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    id = next_txn_id_++;
  }
  // The kBegin is logged eagerly: a crash before commit leaves records
  // under an uncommitted id and recovery counts one lost transaction. The
  // log writer serializes concurrent appends itself.
  WalRecord rec;
  rec.type = RecordType::kBegin;
  rec.txn = id;
  SQLARRAY_RETURN_IF_ERROR(writer_.Append(EncodeRecord(rec)).status());
  return id;
}

Status WalManager::AcquireApply(uint64_t txn) {
  dml_mu_.lock();
  auto t = std::make_unique<ActiveTxn>();
  t->id = txn;
  t->free_list_snapshot = db_->blob_store()->free_pages();
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    active_ = std::move(t);
  }
  return Status::OK();
}

Result<Lsn> WalManager::QuiescentLsn() {
  std::lock_guard<std::mutex> dml(dml_mu_);
  return writer_.next_lsn();
}

Status WalManager::WithDmlLock(const std::function<Status()>& fn) {
  std::lock_guard<std::mutex> dml(dml_mu_);
  return fn();
}

void WalManager::FinishTxnLocked() {
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    active_.reset();  // releases the no-steal pins
  }
  dml_mu_.unlock();
}

Status WalManager::Commit(uint64_t txn, Lsn* commit_lsn) {
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (active_ == nullptr || active_->id != txn) {
      return Status::InvalidArgument("no such open transaction");
    }
  }
  int crash_step = commit_crash_step_;
  commit_crash_step_ = 0;
  if (crash_step == 1) {
    // The transaction stays open (pins held, DML lock held) so the caller
    // can SimulateCrash() from this thread — nothing of it is durable.
    return Status::Internal("simulated crash: before commit record");
  }
  WalRecord rec;
  rec.type = RecordType::kCommit;
  rec.txn = txn;
  for (const auto& [name, meta] : active_->touched) {
    Result<storage::Table*> table = db_->GetTable(name);
    if (!table.ok()) continue;  // gone mid-txn: nothing to re-root
    CatalogEntry entry;
    entry.name = name;
    entry.root = (*table)->clustered_index().root_page();
    rec.catalog.push_back(std::move(entry));
  }
  if (db_->blob_store()->free_pages() != active_->free_list_snapshot) {
    rec.has_free_list = true;
    rec.free_list = db_->blob_store()->free_pages();
  }
  Lsn end = 0;
  Result<Lsn> appended = writer_.Append(EncodeRecord(rec), &end);
  if (crash_step == 2) {
    // Commit record appended but not force-flushed: whether it survives the
    // crash depends on page-boundary spills, and recovery resolves either
    // way to a consistent state (fully applied or fully absent).
    return Status::Internal("simulated crash: commit record unflushed");
  }
  FinishTxnLocked();
  SQLARRAY_RETURN_IF_ERROR(appended.status());
  SQLARRAY_RETURN_IF_ERROR(writer_.FlushTo(end));
  if (commit_lsn != nullptr) *commit_lsn = end;
  reg_commits_->Add(1);
  return Status::OK();
}

Status WalManager::Rollback(uint64_t txn) {
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (active_ == nullptr || active_->id != txn) {
      return Status::InvalidArgument("no such open transaction");
    }
  }
  ActiveTxn* t = active_.get();
  // Restore every touched page's byte-exact before-image and dirty state.
  for (auto& [page_id, bi] : t->before) {
    pool_->RestorePage(page_id, bi.image, bi.state);
  }
  // Restore index metadata for touched tables.
  for (auto& [name, meta] : t->touched) {
    Result<storage::Table*> table = db_->GetTable(name);
    if (table.ok()) (*table)->RestoreIndexMeta(std::move(meta));
  }
  db_->blob_store()->RestoreFreeList(std::move(t->free_list_snapshot));
  WalRecord rec;
  rec.type = RecordType::kAbort;
  rec.txn = txn;
  (void)writer_.Append(EncodeRecord(rec));  // advisory; replay ignores txn
  FinishTxnLocked();
  reg_aborts_->Add(1);
  return Status::OK();
}

Status WalManager::NoteTableTouched(uint64_t txn, storage::Table* table) {
  std::lock_guard<std::mutex> lock(txn_mu_);
  if (active_ == nullptr) return Status::OK();  // txn-0 write
  if (active_->id != txn) {
    return Status::InvalidArgument("no such open transaction");
  }
  const std::string& name = table->name();
  if (active_->touched.count(name) == 0) {
    active_->touched.emplace(name, table->SnapshotIndexMeta());
  }
  return Status::OK();
}

Status WalManager::NoteTableCreated(storage::Table* table) {
  WalRecord rec;
  rec.type = RecordType::kCreateTable;
  rec.txn = kSystemTxn;
  CatalogEntry entry;
  entry.name = table->name();
  entry.columns = table->schema().columns();
  entry.root = table->clustered_index().root_page();
  rec.catalog.push_back(std::move(entry));
  return writer_.Append(EncodeRecord(rec)).status();
}

Status WalManager::Checkpoint() {
  std::lock_guard<std::mutex> dml(dml_mu_);
  int crash_step = checkpoint_crash_step_;
  checkpoint_crash_step_ = 0;

  // Step 1: the log must cover everything the data flush is about to
  // persist (WAL before data, wholesale).
  SQLARRAY_RETURN_IF_ERROR(writer_.FlushAll());
  if (crash_step == 1) {
    return Status::Internal("simulated crash: checkpoint after log flush");
  }

  // Step 2: flush dirty pages one by one in sorted order (each write is a
  // crash site the torture tests exercise).
  std::vector<storage::PageId> dirty = pool_->CollectDirtyPageIds();
  bool first = true;
  for (storage::PageId id : dirty) {
    SQLARRAY_RETURN_IF_ERROR(pool_->FlushPage(id));
    if (first && crash_step == 2) {
      return Status::Internal(
          "simulated crash: checkpoint mid dirty-page flush");
    }
    first = false;
  }
  if (crash_step == 3) {
    return Status::Internal("simulated crash: checkpoint after data flush");
  }

  // Step 3: the checkpoint record — full catalog + blob free-list — on a
  // fresh log page so the header can point straight at it.
  WalRecord rec;
  rec.type = RecordType::kCheckpoint;
  rec.txn = kSystemTxn;
  for (const std::string& name : db_->TableNames()) {
    Result<storage::Table*> table = db_->GetTable(name);
    if (!table.ok()) continue;
    CatalogEntry entry;
    entry.name = name;
    entry.columns = (*table)->schema().columns();
    entry.root = (*table)->clustered_index().root_page();
    rec.catalog.push_back(std::move(entry));
  }
  rec.has_free_list = true;
  rec.free_list = db_->blob_store()->free_pages();
  SQLARRAY_ASSIGN_OR_RETURN(LogWriter::AlignedAppend aligned,
                            writer_.AppendAligned(EncodeRecord(rec)));
  if (crash_step == 4) {
    return Status::Internal("simulated crash: checkpoint before header write");
  }

  // Step 4: flip the header. Until this lands, the previous checkpoint
  // stays authoritative and replay is simply longer.
  LogHeader header;
  header.has_checkpoint = true;
  header.checkpoint_page = aligned.page;
  header.checkpoint_lsn = aligned.lsn;
  SQLARRAY_RETURN_IF_ERROR(device_.WriteHeader(header));
  reg_checkpoints_->Add(1);
  return Status::OK();
}

void WalManager::SimulateCrash() {
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (active_ != nullptr) {
      active_.reset();  // pins die with the "process"
      dml_mu_.unlock();
    }
  }
  pool_->DropCacheNoFlush();
  db_->ClearCatalog();
  db_->blob_store()->RestoreFreeList({});
  writer_.DiscardPending();
  if (observer_.on_crash) observer_.on_crash();
}

Result<RecoveryStats> WalManager::Recover() {
  std::lock_guard<std::mutex> dml(dml_mu_);
  // Start from bare disks: recovery must be a function of (data disk, log)
  // only, which also makes a second Recover() run byte-identical.
  pool_->DropCacheNoFlush();
  db_->ClearCatalog();
  db_->blob_store()->RestoreFreeList({});

  SQLARRAY_ASSIGN_OR_RETURN(LogHeader header, device_.ReadHeader());
  SQLARRAY_ASSIGN_OR_RETURN(
      LogScan scan,
      ScanLog(&device_, header.has_checkpoint ? header.checkpoint_page : 0));
  bool used_checkpoint = header.has_checkpoint;
  if (header.has_checkpoint) {
    bool valid = !scan.records.empty() &&
                 scan.records.front().type == RecordType::kCheckpoint &&
                 scan.records.front().lsn == header.checkpoint_lsn;
    if (!valid) {
      // Stale or damaged checkpoint pointer: fall back to a full scan.
      SQLARRAY_ASSIGN_OR_RETURN(scan, ScanLog(&device_, 0));
      used_checkpoint = false;
    }
  }

  RecoveryStats stats;
  stats.records_scanned = static_cast<int64_t>(scan.records.size());
  stats.truncated_tail = scan.truncated;
  stats.dead_bytes_skipped = scan.dead_bytes_skipped;
  stats.used_checkpoint = used_checkpoint;

  // Pass 1: which transactions committed, and the highest txn id ever used
  // (new ids must not collide with logged ones, or replay would resurrect
  // a dead transaction under a committed id).
  std::set<uint64_t> committed;
  std::set<uint64_t> seen;
  uint64_t max_txn = 0;
  for (const WalRecord& rec : scan.records) {
    max_txn = std::max(max_txn, rec.txn);
    if (rec.txn == kSystemTxn) continue;
    seen.insert(rec.txn);
    if (rec.type == RecordType::kCommit) committed.insert(rec.txn);
  }
  stats.txns_committed = static_cast<int64_t>(committed.size());
  stats.txns_lost = static_cast<int64_t>(seen.size() - committed.size());

  // Pass 2: replay in LSN order. Full-page images make redo idempotent.
  std::map<std::string, CatalogEntry> catalog;
  std::vector<storage::PageId> free_list;
  auto replayable = [&](const WalRecord& rec) {
    return rec.txn == kSystemTxn || committed.count(rec.txn) != 0;
  };
  for (const WalRecord& rec : scan.records) {
    switch (rec.type) {
      case RecordType::kCheckpoint:
        catalog.clear();
        for (const CatalogEntry& entry : rec.catalog) {
          catalog[entry.name] = entry;
        }
        free_list = rec.free_list;
        break;
      case RecordType::kPageWrite: {
        if (!replayable(rec)) break;
        storage::SimulatedDisk* disk = db_->disk();
        disk->EnsureAllocated(rec.page_id);
        SQLARRAY_RETURN_IF_ERROR(disk->WritePage(rec.page_id, rec.page_image));
        ++stats.pages_redone;
        break;
      }
      case RecordType::kCreateTable:
        if (!replayable(rec)) break;
        catalog[rec.catalog.front().name] = rec.catalog.front();
        break;
      case RecordType::kCommit:
        for (const CatalogEntry& entry : rec.catalog) {
          auto it = catalog.find(entry.name);
          if (it != catalog.end()) it->second.root = entry.root;
        }
        if (rec.has_free_list) free_list = rec.free_list;
        break;
      case RecordType::kBegin:
      case RecordType::kAbort:
        break;
    }
  }

  // Rebuild the catalog by walking each table from its last committed root.
  for (const auto& [name, entry] : catalog) {
    SQLARRAY_ASSIGN_OR_RETURN(storage::Schema schema,
                              storage::Schema::Create(entry.columns));
    SQLARRAY_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::Table> table,
        storage::Table::Attach(name, std::move(schema), entry.root, pool_,
                               db_->blob_store()));
    SQLARRAY_RETURN_IF_ERROR(db_->AdoptTable(std::move(table)));
    ++stats.tables_attached;
  }
  db_->blob_store()->RestoreFreeList(std::move(free_list));

  // Future appends resume past the valid log, in a fresh epoch, so the
  // reader can tell live records from any dead bytes we just skipped over.
  writer_.Reset(scan.resume_page, scan.resume_lsn, scan.resume_epoch);
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    next_txn_id_ = max_txn + 1;
  }
  if (observer_.on_recovered) observer_.on_recovered(scan.resume_lsn);

  reg_recoveries_->Add(1);
  reg_recovery_pages_->Add(stats.pages_redone);
  reg_recovery_records_->Add(stats.records_scanned);
  last_recovery_ = stats;
  return stats;
}

}  // namespace sqlarray::wal
