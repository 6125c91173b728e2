#include "mvcc/mvcc.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <variant>

#include "wal/log.h"
#include "wal/record.h"

namespace sqlarray::mvcc {

namespace {

using storage::Lsn;
using storage::Page;
using storage::PageId;
using storage::PinnedPage;

constexpr Lsn kNoSnapshot = std::numeric_limits<Lsn>::max();

/// Clustered key of a row: the first column, which every table here keys on.
Result<int64_t> RowKey(const storage::Row& row) {
  if (row.empty() || !std::holds_alternative<int64_t>(row[0])) {
    return Status::InvalidArgument("row key (first column) must be BIGINT");
  }
  return std::get<int64_t>(row[0]);
}

}  // namespace

// ---------------------------------------------------------------------------
// Snapshot views
// ---------------------------------------------------------------------------

/// The committed state at one LSN, served from the pool + version chains.
class LiveSnapshotView : public storage::PageSource {
 public:
  LiveSnapshotView(MvccManager* mgr, Lsn lsn) : mgr_(mgr), lsn_(lsn) {}
  ~LiveSnapshotView() override { mgr_->ReleaseSnapshot(lsn_); }

  Lsn lsn() const override { return lsn_; }

  Result<PinnedPage> Fetch(PageId id) override {
    return mgr_->FetchAt(id, lsn_);
  }

  Result<PageId> TableRoot(const std::string& table) override {
    std::lock_guard<std::mutex> lock(mgr_->mu_);
    return mgr_->RootAtLocked(table, lsn_);
  }

 private:
  MvccManager* mgr_;
  Lsn lsn_;
};

/// An open transaction's read-your-writes view: overlay pages first, the
/// shared state second. All non-overlay pages resolve through chain
/// visibility at the view's LSN (the view registers as an active snapshot,
/// pinning that history), so scans of tables the transaction has NOT
/// shadowed see a consistent committed snapshot even when a concurrent
/// commit restructures the tree mid-statement. Shadowed tables walk from
/// the shadow root copied at the transaction's first write to that table;
/// a foreign commit into the same table between that copy and this view's
/// creation can still mix tree structure from copy time with pages at the
/// view's LSN (the documented residual anomaly of in-transaction scans).
class TxnSnapshotView : public storage::PageSource {
 public:
  TxnSnapshotView(MvccManager* mgr, MvccManager::TxnState* txn, Lsn lsn)
      : mgr_(mgr), txn_(txn), lsn_(lsn) {}
  ~TxnSnapshotView() override { mgr_->ReleaseSnapshot(lsn_); }

  Lsn lsn() const override { return lsn_; }

  Result<PinnedPage> Fetch(PageId id) override {
    // The overlay is only mutated by the owning session's DML calls, which
    // never overlap its statement scans, so lock-free reads are safe here.
    auto it = txn_->overlay.find(id);
    if (it != txn_->overlay.end()) {
      return PinnedPage::FromImage(id, it->second);
    }
    return mgr_->FetchAt(id, lsn_);
  }

  Result<PageId> TableRoot(const std::string& table) override {
    auto it = txn_->shadows.find(table);
    if (it != txn_->shadows.end()) return it->second.root_page();
    std::lock_guard<std::mutex> lock(mgr_->mu_);
    return mgr_->RootAtLocked(table, lsn_);
  }

 private:
  MvccManager* mgr_;
  MvccManager::TxnState* txn_;
  Lsn lsn_;
};

namespace {

/// An arbitrary historical LSN, rebuilt from the log's full-page images.
/// Immutable after construction, so concurrent worker fetches are free.
class LogSnapshotView : public storage::PageSource {
 public:
  LogSnapshotView(Lsn lsn,
                  std::unordered_map<PageId, std::shared_ptr<const Page>> pages,
                  std::map<std::string, PageId> roots,
                  storage::SimulatedDisk* disk)
      : lsn_(lsn), pages_(std::move(pages)), roots_(std::move(roots)),
        disk_(disk) {}

  Lsn lsn() const override { return lsn_; }

  Result<PinnedPage> Fetch(PageId id) override {
    auto it = pages_.find(id);
    if (it != pages_.end()) return PinnedPage::FromImage(id, it->second);
    // Never logged at or before the snapshot LSN: the page predates the
    // WAL (bulk data loaded before the manager attached). The data disk
    // holds its only image.
    auto image = std::make_shared<Page>();
    SQLARRAY_RETURN_IF_ERROR(disk_->ReadPage(id, image.get()));
    return PinnedPage::FromImage(id, std::move(image));
  }

  Result<PageId> TableRoot(const std::string& table) override {
    auto it = roots_.find(table);
    if (it == roots_.end()) {
      return Status::NotFound("table " + table +
                              " did not exist at lsn " + std::to_string(lsn_));
    }
    return it->second;
  }

 private:
  Lsn lsn_;
  std::unordered_map<PageId, std::shared_ptr<const Page>> pages_;
  std::map<std::string, PageId> roots_;
  storage::SimulatedDisk* disk_;
};

}  // namespace

// ---------------------------------------------------------------------------
// MvccManager
// ---------------------------------------------------------------------------

MvccManager::MvccManager(storage::Database* db, wal::WalManager* wal,
                         MvccConfig config)
    : db_(db),
      wal_(wal),
      pool_(db->buffer_pool()),
      config_(config),
      reg_versions_created_(obs::MetricsRegistry::Global().GetCounter(
          "mvcc.versions_created")),
      reg_versions_gc_(
          obs::MetricsRegistry::Global().GetCounter("mvcc.versions_gc")),
      reg_write_conflicts_(
          obs::MetricsRegistry::Global().GetCounter("mvcc.write_conflicts")),
      reg_snapshots_active_(
          obs::MetricsRegistry::Global().GetGauge("mvcc.snapshots_active")),
      reg_oldest_snapshot_(
          obs::MetricsRegistry::Global().GetGauge("mvcc.oldest_snapshot_lsn")),
      reg_history_bytes_(
          obs::MetricsRegistry::Global().GetGauge("mvcc.history_bytes")) {
  Lsn now = 0;
  if (Result<Lsn> q = wal_->QuiescentLsn(); q.ok()) now = *q;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SeedRootsLocked(0);
  }
  visible_.store(now, std::memory_order_release);
  pool_->SetVersionSink(this);
  wal::WalObserver obs;
  obs.on_crash = [this] { OnWalCrash(); };
  obs.on_recovered = [this](Lsn resume) { OnWalRecovered(resume); };
  wal_->SetObserver(std::move(obs));
  db_->AttachMvcc(this);
}

MvccManager::~MvccManager() {
  pool_->SetVersionSink(nullptr);
  wal_->SetObserver({});
  db_->AttachMvcc(nullptr);
}

void MvccManager::SeedRootsLocked(Lsn lsn) {
  for (const std::string& name : db_->TableNames()) {
    Result<storage::Table*> table = db_->GetTable(name);
    if (!table.ok()) continue;
    PageId root = (*table)->clustered_index().root_page();
    auto& hist = root_history_[name];
    if (hist.empty() || hist.back().second != root) {
      hist.emplace_back(lsn, root);
    }
  }
}

void MvccManager::OnWalCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  chains_.clear();
  latest_lsn_.clear();
  root_history_.clear();
  claims_.clear();
  txns_.clear();
  snapshots_.clear();
  history_bytes_ = 0;
  visible_.store(0, std::memory_order_release);
  reg_snapshots_active_->Set(0);
  reg_oldest_snapshot_->Set(0);
  reg_history_bytes_->Set(0);
}

void MvccManager::OnWalRecovered(Lsn resume_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  // History did not survive the crash; the recovered state IS the world at
  // resume_lsn. AS OF still reaches further back via the log itself.
  chains_.clear();
  latest_lsn_.clear();
  root_history_.clear();
  history_bytes_ = 0;
  SeedRootsLocked(0);
  visible_.store(resume_lsn, std::memory_order_release);
  reg_history_bytes_->Set(0);
}

// --- VersionSink -----------------------------------------------------------

void MvccManager::OnPageWrite(PageId id,
                              std::shared_ptr<const Page> old_image,
                              Lsn new_lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  Lsn prev = 0;
  if (auto it = latest_lsn_.find(id); it != latest_lsn_.end()) {
    prev = it->second;
  }
  latest_lsn_[id] = new_lsn;
  if (old_image == nullptr) return;  // prior image unrecoverable (fresh page)
  auto& chain = chains_[id];
  chain.insert(chain.begin(), Version{prev, std::move(old_image)});
  history_bytes_ += storage::kPageSize;
  reg_versions_created_->Add(1);
  reg_history_bytes_->Set(history_bytes_);
}

Result<PinnedPage> MvccManager::FetchAt(PageId id, Lsn lsn) {
  // Pin the current image FIRST: a concurrent overwrite after the check
  // below would otherwise race the chain push. Pinning before reading
  // latest_lsn_ means either (a) the page hasn't moved past `lsn` and the
  // pin is the right image, or (b) it has, and the chain (whose entries
  // are pushed before the pool swaps images) has the one we need.
  SQLARRAY_ASSIGN_OR_RETURN(PinnedPage current, pool_->GetPage(id));
  std::lock_guard<std::mutex> lock(mu_);
  Lsn latest = 0;
  if (auto it = latest_lsn_.find(id); it != latest_lsn_.end()) {
    latest = it->second;
  }
  if (latest <= lsn) return current;
  if (auto it = chains_.find(id); it != chains_.end()) {
    for (const Version& v : it->second) {  // newest first
      if (v.written_lsn <= lsn) return PinnedPage::FromImage(id, v.image);
    }
  }
  return Status::Internal("snapshot version of page " + std::to_string(id) +
                          " at lsn " + std::to_string(lsn) +
                          " is no longer retained");
}

Result<PageId> MvccManager::RootAtLocked(const std::string& table,
                                         Lsn lsn) const {
  auto it = root_history_.find(table);
  if (it == root_history_.end()) {
    return Status::NotFound("table " + table + " did not exist at lsn " +
                            std::to_string(lsn));
  }
  PageId root = storage::kNullPage;
  bool any = false;
  for (const auto& [at, r] : it->second) {  // ascending append order
    if (at <= lsn) {
      root = r;
      any = true;
    }
  }
  if (!any) {
    return Status::NotFound("table " + table + " did not exist at lsn " +
                            std::to_string(lsn));
  }
  return root;
}

// --- Transactions ----------------------------------------------------------

Result<uint64_t> MvccManager::Begin() {
  SQLARRAY_ASSIGN_OR_RETURN(uint64_t id, wal_->BeginDeferred());
  auto txn = std::make_unique<TxnState>();
  TxnState* t = txn.get();
  t->id = id;
  storage::BufferPool* pool = pool_;
  t->io.fetch = [t, pool](PageId pid) -> Result<PinnedPage> {
    auto it = t->overlay.find(pid);
    if (it != t->overlay.end()) return PinnedPage::FromImage(pid, it->second);
    return pool->GetPage(pid);
  };
  t->io.write = [t](PageId pid, const Page& page) -> Status {
    t->overlay[pid] = std::make_shared<Page>(page);
    return Status::OK();
  };
  t->io.alloc = [pool]() -> PageId { return pool->AllocatePage(); };
  std::lock_guard<std::mutex> lock(mu_);
  // begin_lsn is sampled and the txn registered under ONE critical
  // section. Sampling outside it would open a window where a concurrent
  // Commit/Rollback's PruneClaimsLocked sees no open transactions and
  // erases a committed claim this txn must still conflict with — a lost
  // update past first-updater-wins.
  t->begin_lsn = visible_.load(std::memory_order_acquire);
  txns_[id] = std::move(txn);
  return id;
}

Result<MvccManager::TxnState*> MvccManager::FindTxn(uint64_t txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("no such open mvcc transaction");
  }
  return it->second.get();
}

bool MvccManager::TxnActive(uint64_t txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  return txns_.count(txn) != 0;
}

Status MvccManager::ClaimKey(TxnState* t, const std::string& table,
                             int64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = claims_.try_emplace({table, key});
  Claim& c = it->second;
  if (!inserted) {
    if (c.owner != 0 && c.owner != t->id) {
      reg_write_conflicts_->Add(1);
      return Status::WriteConflict(
          "row " + std::to_string(key) + " of " + table +
              " is being written by transaction " + std::to_string(c.owner),
          config_.conflict_retry_ms);
    }
    if (c.owner == 0 && c.committed_lsn > t->begin_lsn) {
      reg_write_conflicts_->Add(1);
      return Status::WriteConflict(
          "row " + std::to_string(key) + " of " + table +
              " committed at lsn " + std::to_string(c.committed_lsn) +
              ", past this transaction's begin",
          config_.conflict_retry_ms);
    }
    if (c.owner == t->id) return Status::OK();  // already ours
  }
  c.owner = t->id;
  t->claims.emplace_back(table, key);
  return Status::OK();
}

Result<storage::BTree*> MvccManager::ShadowFor(TxnState* t,
                                               storage::Table* table) {
  auto it = t->shadows.find(table->name());
  if (it == t->shadows.end()) {
    // Copy the shared tree's metadata and redirect its page IO into the
    // transaction's overlay. The copy's unmodified subtrees keep reading
    // the shared pages; every page the shadow writes lands privately. The
    // copy itself runs under the DML lock: a concurrent commit replay
    // mutates the shared tree's root/height/allocation map under that
    // lock, and a torn copy would wire the shadow to a half-updated tree.
    std::optional<storage::BTree> shadow;
    SQLARRAY_RETURN_IF_ERROR(wal_->WithDmlLock([&] {
      shadow.emplace(table->clustered_index());
      return Status::OK();
    }));
    shadow->SetIO(&t->io);
    it = t->shadows.emplace(table->name(), std::move(*shadow)).first;
  }
  return &it->second;
}

Status MvccManager::ApplyInsert(uint64_t txn, storage::Table* table,
                                storage::Row row) {
  SQLARRAY_ASSIGN_OR_RETURN(TxnState * t, FindTxn(txn));
  SQLARRAY_ASSIGN_OR_RETURN(int64_t key, RowKey(row));
  SQLARRAY_RETURN_IF_ERROR(ClaimKey(t, table->name(), key));
  SQLARRAY_ASSIGN_OR_RETURN(storage::BTree * shadow, ShadowFor(t, table));
  // The shadow insert encodes blob columns as size-only placeholders: no
  // shared blob page may be written before commit. In-transaction reads of
  // an uncommitted blob's CONTENT are therefore unsupported.
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> encoded,
                            table->EncodeRowShadow(row));
  SQLARRAY_RETURN_IF_ERROR(shadow->Insert(encoded));
  TxnState::Op op;
  op.is_insert = true;
  op.table = table->name();
  op.row = std::move(row);
  t->ops.push_back(std::move(op));
  return Status::OK();
}

Result<bool> MvccManager::ApplyDelete(uint64_t txn, storage::Table* table,
                                      int64_t key) {
  SQLARRAY_ASSIGN_OR_RETURN(TxnState * t, FindTxn(txn));
  SQLARRAY_RETURN_IF_ERROR(ClaimKey(t, table->name(), key));
  SQLARRAY_ASSIGN_OR_RETURN(storage::BTree * shadow, ShadowFor(t, table));
  SQLARRAY_ASSIGN_OR_RETURN(bool found, shadow->Delete(key));
  if (!found) return false;
  TxnState::Op op;
  op.table = table->name();
  op.key = key;
  t->ops.push_back(std::move(op));
  return true;
}

Status MvccManager::Commit(uint64_t txn, Lsn* commit_lsn_out) {
  SQLARRAY_ASSIGN_OR_RETURN(TxnState * t, FindTxn(txn));
  int crash_step = commit_crash_step_.exchange(0, std::memory_order_relaxed);

  if (t->ops.empty()) {
    // Read-only (or fully no-op): nothing to log, nothing becomes visible.
    return Rollback(txn);
  }
  if (crash_step == 1) {
    return Status::Internal("simulated crash: before mvcc commit replay");
  }

  // Replay the buffered ops through the plain serialized write path. From
  // here until the WAL commit returns, this thread holds the DML lock and
  // every page it writes is logged under `txn` with its before-image
  // pinned — exactly as if the whole transaction had run under Begin().
  SQLARRAY_RETURN_IF_ERROR(wal_->AcquireApply(txn));
  std::set<std::string> touched;
  bool first_op = true;
  for (const TxnState::Op& op : t->ops) {
    Result<storage::Table*> table = db_->GetTable(op.table);
    if (!table.ok()) {
      (void)wal_->Rollback(txn);
      // Build the message BEFORE AbandonTxn frees the op list `op` lives in.
      Status st =
          Status::Internal("mvcc commit: table " + op.table + " vanished");
      AbandonTxn(txn);
      return st;
    }
    if (touched.insert(op.table).second) {
      SQLARRAY_RETURN_IF_ERROR(wal_->NoteTableTouched(txn, *table));
    }
    Status applied;
    if (op.is_insert) {
      applied = (*table)->Insert(op.row);
    } else {
      Result<bool> deleted = (*table)->Delete(op.key);
      applied = deleted.status();
      if (applied.ok() && !*deleted) {
        applied = Status::Internal("mvcc commit: row " +
                                   std::to_string(op.key) + " vanished");
      }
    }
    if (!applied.ok()) {
      // The claim protocol makes this unreachable short of corruption;
      // the WAL rollback restores every touched page byte-exactly.
      (void)wal_->Rollback(txn);
      AbandonTxn(txn);
      return applied;
    }
    if (first_op && crash_step == 2) {
      return Status::Internal("simulated crash: mid mvcc commit replay");
    }
    first_op = false;
  }
  if (crash_step == 3) {
    return Status::Internal("simulated crash: mvcc replay done, no commit");
  }

  Lsn commit_lsn = 0;
  if (Status st = wal_->Commit(txn, &commit_lsn); !st.ok()) {
    // A failed WAL commit (log append/flush error, or an armed WAL-level
    // crash step) must not leave the txn's claims owned forever: nothing
    // will ever Rollback this txn once Commit has been called, and owned
    // claims are never pruned — every future write to those keys would be
    // a permanent WRITE_CONFLICT. The WAL side has already closed the
    // transaction (or, for a simulated crash, the harness's
    // SimulateCrash/Recover wipes all MVCC state anyway), so releasing
    // the claims and dropping the TxnState is all that is left.
    AbandonTxn(txn);
    return st;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [tname, key] : t->claims) {
      auto it = claims_.find({tname, key});
      if (it != claims_.end() && it->second.owner == t->id) {
        it->second.owner = 0;
        it->second.committed_lsn = commit_lsn;
      }
    }
    for (const std::string& tname : touched) {
      Result<storage::Table*> table = db_->GetTable(tname);
      if (!table.ok()) continue;
      PageId root = (*table)->clustered_index().root_page();
      auto& hist = root_history_[tname];
      if (hist.empty() || hist.back().second != root) {
        hist.emplace_back(commit_lsn, root);
      }
    }
    Lsn cur = visible_.load(std::memory_order_relaxed);
    while (cur < commit_lsn &&
           !visible_.compare_exchange_weak(cur, commit_lsn)) {
    }
    txns_.erase(txn);
    PruneClaimsLocked();
    RunGcLocked();
  }
  if (commit_lsn_out != nullptr) *commit_lsn_out = commit_lsn;
  return Status::OK();
}

Status MvccManager::Rollback(uint64_t txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it == txns_.end()) {
    return Status::InvalidArgument("no such open mvcc transaction");
  }
  // Nothing shared was touched: releasing the claims and dropping the
  // shadow state IS the rollback. (The overlay's allocated page ids are a
  // bounded leak, like blob frees outside a transaction.)
  AbandonTxnLocked(it);
  return Status::OK();
}

void MvccManager::AbandonTxn(uint64_t txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(txn);
  if (it != txns_.end()) AbandonTxnLocked(it);
}

void MvccManager::AbandonTxnLocked(
    std::map<uint64_t, std::unique_ptr<TxnState>>::iterator it) {
  for (const auto& [tname, key] : it->second->claims) {
    auto cit = claims_.find({tname, key});
    if (cit != claims_.end() && cit->second.owner == it->second->id) {
      cit->second.owner = 0;
    }
  }
  txns_.erase(it);
  PruneClaimsLocked();
  RunGcLocked();
}

void MvccManager::PruneClaimsLocked() {
  // A committed claim matters only while some live transaction could have
  // begun before it committed. With no transactions open, any future
  // claimant begins at or past the visibility horizon, which every
  // committed LSN is at or below — so everything unowned can go.
  Lsn min_begin = kNoSnapshot;
  for (const auto& [id, t] : txns_) {
    min_begin = std::min(min_begin, t->begin_lsn);
  }
  for (auto it = claims_.begin(); it != claims_.end();) {
    if (it->second.owner == 0 && it->second.committed_lsn <= min_begin) {
      it = claims_.erase(it);
    } else {
      ++it;
    }
  }
}

// --- Snapshots --------------------------------------------------------------

Result<std::shared_ptr<storage::PageSource>> MvccManager::AcquireSnapshot() {
  std::lock_guard<std::mutex> lock(mu_);
  if (history_bytes_ > config_.history_budget_bytes) {
    return Status::ResourceExhausted(
        "version history (" + std::to_string(history_bytes_) +
            " bytes) exceeds the snapshot budget",
        config_.conflict_retry_ms);
  }
  Lsn s = RegisterSnapshotLocked();
  return std::shared_ptr<storage::PageSource>(new LiveSnapshotView(this, s));
}

storage::Lsn MvccManager::RegisterSnapshotLocked() {
  Lsn s = visible_.load(std::memory_order_acquire);
  snapshots_.insert(s);
  reg_snapshots_active_->Set(static_cast<int64_t>(snapshots_.size()));
  reg_oldest_snapshot_->Set(static_cast<int64_t>(*snapshots_.begin()));
  return s;
}

void MvccManager::ReleaseSnapshot(Lsn lsn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = snapshots_.find(lsn);
  if (it != snapshots_.end()) snapshots_.erase(it);
  reg_snapshots_active_->Set(static_cast<int64_t>(snapshots_.size()));
  reg_oldest_snapshot_->Set(
      snapshots_.empty() ? 0 : static_cast<int64_t>(*snapshots_.begin()));
  RunGcLocked();
}

Result<std::shared_ptr<storage::PageSource>> MvccManager::TxnView(
    uint64_t txn) {
  SQLARRAY_ASSIGN_OR_RETURN(TxnState * t, FindTxn(txn));
  // The view reads non-overlay pages through chain visibility at its LSN,
  // so it must pin that history like any other snapshot. No budget check:
  // a statement inside an already-open transaction must not start failing
  // on snapshot backpressure (the txn can always roll back), and the view
  // lives only for the one statement.
  std::lock_guard<std::mutex> lock(mu_);
  Lsn s = RegisterSnapshotLocked();
  return std::shared_ptr<storage::PageSource>(new TxnSnapshotView(this, t, s));
}

void MvccManager::RunGcLocked() {
  Lsn oldest = snapshots_.empty() ? kNoSnapshot : *snapshots_.begin();
  // The horizon is clamped to the visibility LSN even with no snapshot
  // active: a commit replay in flight has already pushed pre-images for
  // pages whose latest write is past visible_, and a snapshot acquired at
  // visible_ at any moment needs the newest entry at or below it. Once
  // that commit lands, visible_ advances past its writes and the
  // latest <= oldest branch below drains the chain.
  oldest = std::min(oldest, visible_.load(std::memory_order_relaxed));
  int64_t dropped = 0;
  {
    for (auto it = chains_.begin(); it != chains_.end();) {
      Lsn latest = 0;
      if (auto lit = latest_lsn_.find(it->first); lit != latest_lsn_.end()) {
        latest = lit->second;
      }
      if (latest <= oldest) {
        // Every active snapshot already sees the current image.
        dropped += static_cast<int64_t>(it->second.size());
        history_bytes_ -=
            static_cast<int64_t>(it->second.size()) * storage::kPageSize;
        it = chains_.erase(it);
        continue;
      }
      // Keep entries newer than the horizon plus the one that serves it
      // (the newest with written_lsn <= oldest); drop everything older.
      auto& chain = it->second;  // newest first
      size_t keep = chain.size();
      for (size_t i = 0; i < chain.size(); ++i) {
        if (chain[i].written_lsn <= oldest) {
          keep = i + 1;
          break;
        }
      }
      if (keep < chain.size()) {
        dropped += static_cast<int64_t>(chain.size() - keep);
        history_bytes_ -=
            static_cast<int64_t>(chain.size() - keep) * storage::kPageSize;
        chain.resize(keep);
      }
      ++it;
    }
  }
  if (dropped > 0) reg_versions_gc_->Add(dropped);
  reg_history_bytes_->Set(history_bytes_);
}

// --- AS OF ------------------------------------------------------------------

Result<std::shared_ptr<storage::PageSource>> MvccManager::OpenAsOf(Lsn lsn) {
  // The view is a pure function of the log prefix [0, lsn]. Log pages are
  // sealed once flushed, so scanning while writers append is safe; flush
  // first so everything at or below the horizon is on the log disk.
  SQLARRAY_RETURN_IF_ERROR(wal_->log_writer()->FlushAll());
  SQLARRAY_ASSIGN_OR_RETURN(wal::LogScan scan,
                            ScanLog(wal_->log_device(), 0));
  if (scan.resume_lsn < lsn) {
    // A racing append may have straddled the flush; one more pass covers it.
    SQLARRAY_RETURN_IF_ERROR(wal_->log_writer()->FlushAll());
    SQLARRAY_ASSIGN_OR_RETURN(scan, ScanLog(wal_->log_device(), 0));
    if (scan.resume_lsn < lsn) {
      return Status::InvalidArgument(
          "AS OF lsn " + std::to_string(lsn) + " is beyond the log end (" +
          std::to_string(scan.resume_lsn) + ")");
    }
  }

  // Pass 1: commit horizon per transaction — a txn's effects exist at the
  // snapshot iff its COMMIT record is wholly at or below the horizon.
  std::unordered_map<uint64_t, Lsn> commit_end;
  for (const wal::WalRecord& rec : scan.records) {
    if (rec.type == wal::RecordType::kCommit) {
      commit_end[rec.txn] = rec.end_lsn;
    }
  }
  auto visible_at = [&](const wal::WalRecord& rec) {
    if (rec.txn == wal::kSystemTxn) return rec.end_lsn <= lsn;
    auto it = commit_end.find(rec.txn);
    return it != commit_end.end() && it->second <= lsn;
  };

  // Pass 2: replay page images and catalog changes in LSN order, exactly
  // like recovery but stopping the world at the horizon.
  std::unordered_map<PageId, std::shared_ptr<const Page>> pages;
  std::map<std::string, PageId> roots;
  {
    // Tables created before the WAL attached have no kCreateTable record;
    // seed their roots from the in-memory root history at the horizon —
    // the catalog analogue of Fetch's pre-WAL disk fallback. Logged
    // catalog records at or below the horizon override these below (a
    // checkpoint legitimately replaces the whole set: its catalog is
    // complete, pre-WAL tables included).
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, hist] : root_history_) {
      if (Result<PageId> r = RootAtLocked(name, lsn); r.ok()) {
        roots[name] = *r;
      }
    }
  }
  for (const wal::WalRecord& rec : scan.records) {
    switch (rec.type) {
      case wal::RecordType::kPageWrite:
        if (!visible_at(rec)) break;
        pages[rec.page_id] = std::make_shared<Page>(rec.page_image);
        break;
      case wal::RecordType::kCreateTable:
        if (!visible_at(rec)) break;
        roots[rec.catalog.front().name] = rec.catalog.front().root;
        break;
      case wal::RecordType::kCommit:
        if (rec.end_lsn > lsn) break;
        for (const wal::CatalogEntry& entry : rec.catalog) {
          // Unconditional insert: a pre-WAL table's first logged root
          // arrives via a commit's catalog, never a kCreateTable record.
          roots[entry.name] = entry.root;
        }
        break;
      case wal::RecordType::kCheckpoint:
        if (rec.end_lsn > lsn) break;
        roots.clear();
        for (const wal::CatalogEntry& entry : rec.catalog) {
          roots[entry.name] = entry.root;
        }
        break;
      case wal::RecordType::kBegin:
      case wal::RecordType::kAbort:
        break;
    }
  }
  return std::shared_ptr<storage::PageSource>(new LogSnapshotView(
      lsn, std::move(pages), std::move(roots), db_->disk()));
}

Result<std::shared_ptr<storage::PageSource>>
MvccManager::OpenAsOfCheckpoint() {
  SQLARRAY_ASSIGN_OR_RETURN(wal::LogHeader header,
                            wal_->log_device()->ReadHeader());
  if (!header.has_checkpoint) {
    return Status::NotFound("no checkpoint has been taken");
  }
  return OpenAsOf(header.checkpoint_lsn);
}

// --- DDL / maintenance ------------------------------------------------------

Status MvccManager::RunDdl(const std::function<Status()>& fn) {
  // DDL writes pages under txn 0 and must not interleave with a commit
  // replay (whose page writes would capture them as before-images), so it
  // runs under the same DML lock. Visible immediately; not transactional.
  SQLARRAY_RETURN_IF_ERROR(wal_->WithDmlLock(fn));
  return RefreshVisible();
}

Status MvccManager::RefreshVisible() {
  SQLARRAY_ASSIGN_OR_RETURN(Lsn q, wal_->QuiescentLsn());
  std::lock_guard<std::mutex> lock(mu_);
  SeedRootsLocked(q);
  Lsn cur = visible_.load(std::memory_order_relaxed);
  while (cur < q && !visible_.compare_exchange_weak(cur, q)) {
  }
  return Status::OK();
}

MvccStats MvccManager::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  MvccStats s;
  s.snapshots_active = static_cast<int64_t>(snapshots_.size());
  s.versions_created = reg_versions_created_->value();
  s.versions_gc = reg_versions_gc_->value();
  s.write_conflicts = reg_write_conflicts_->value();
  s.history_bytes = history_bytes_;
  s.oldest_snapshot_lsn = snapshots_.empty() ? 0 : *snapshots_.begin();
  s.visible_lsn = visible_.load(std::memory_order_acquire);
  return s;
}

}  // namespace sqlarray::mvcc
