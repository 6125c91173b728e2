// Tests for the write-ahead log (ISSUE 5): the record codec, the sealed-page
// log writer and scanner (torn tails, epoch resync), transactions with
// in-memory rollback, group commit, fuzzy checkpoints with crash steps, SQL
// BEGIN/COMMIT/ROLLBACK/CHECKPOINT, EXPLAIN ANALYZE for DML — and the
// headline crash-point torture matrix: kill the "process" at every crash
// site of a mixed insert/delete/checkpoint workload, recover, and verify
// that every committed transaction survives and no uncommitted one does.
// Built both plain and under -DSQLARRAY_SANITIZE=thread (tsan_wal_suite).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/exec.h"
#include "mvcc/mvcc.h"
#include "obs/profile.h"
#include "sql/session.h"
#include "storage/fault.h"
#include "storage/table.h"
#include "storage/verify.h"
#include "udfs/register.h"
#include "wal/log.h"
#include "wal/record.h"
#include "wal/wal.h"

namespace sqlarray {
namespace {

using engine::Value;
using storage::ColumnType;
using wal::LogDevice;
using wal::LogScan;
using wal::LogWriter;
using wal::RecordType;
using wal::WalConfig;
using wal::WalManager;
using wal::WalRecord;

storage::Schema KeyValueSchema() {
  return storage::Schema::Create(
             {{"id", ColumnType::kInt64, 0}, {"v", ColumnType::kInt64, 0}})
      .value();
}

/// FNV-1a over every allocated data page — the byte-identity fingerprint the
/// idempotence and determinism properties compare.
uint64_t DiskFingerprint(storage::SimulatedDisk* disk) {
  uint64_t h = 1469598103934665603ull;
  storage::Page page;
  int64_t n = disk->page_count();
  for (int64_t id = 1; id <= n; ++id) {
    Status st = disk->ReadPage(static_cast<storage::PageId>(id), &page);
    EXPECT_TRUE(st.ok()) << st.message();
    for (int64_t i = 0; i < storage::kPageSize; ++i) {
      h ^= page.data()[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Asserts that `name` holds exactly the rows of `want` (key -> v column).
void ExpectTableMatches(storage::Database* db, const std::string& name,
                        const std::map<int64_t, int64_t>& want) {
  Result<storage::Table*> table = db->GetTable(name);
  ASSERT_TRUE(table.ok()) << table.status().message();
  EXPECT_EQ((*table)->row_count(), static_cast<int64_t>(want.size()));
  for (const auto& [k, v] : want) {
    Result<std::optional<storage::Row>> row = (*table)->Lookup(k);
    ASSERT_TRUE(row.ok()) << row.status().message();
    ASSERT_TRUE(row->has_value()) << name << " lost key " << k;
    EXPECT_EQ(std::get<int64_t>((**row)[1]), v) << name << " key " << k;
  }
}

// ---------------------------------------------------------------------------
// Record codec
// ---------------------------------------------------------------------------

TEST(WalRecordCodec, RoundTripsEveryType) {
  {
    WalRecord r;
    r.type = RecordType::kBegin;
    r.txn = 7;
    WalRecord back = wal::DecodeRecord(wal::EncodeRecord(r)).value();
    EXPECT_EQ(back.type, RecordType::kBegin);
    EXPECT_EQ(back.txn, 7u);
  }
  {
    WalRecord r;
    r.type = RecordType::kPageWrite;
    r.txn = 3;
    r.page_id = 42;
    for (int64_t i = 0; i < storage::kPageSize; ++i) {
      r.page_image.data()[i] = static_cast<uint8_t>(i * 31 + 5);
    }
    WalRecord back = wal::DecodeRecord(wal::EncodeRecord(r)).value();
    EXPECT_EQ(back.type, RecordType::kPageWrite);
    EXPECT_EQ(back.page_id, 42u);
    EXPECT_EQ(0, std::memcmp(back.page_image.data(), r.page_image.data(),
                             storage::kPageSize));
  }
  {
    WalRecord r;
    r.type = RecordType::kCommit;
    r.txn = 11;
    r.catalog.push_back({"t0", {}, 9});
    r.has_free_list = true;
    r.free_list = {4, 8, 15};
    WalRecord back = wal::DecodeRecord(wal::EncodeRecord(r)).value();
    ASSERT_EQ(back.catalog.size(), 1u);
    EXPECT_EQ(back.catalog[0].name, "t0");
    EXPECT_EQ(back.catalog[0].root, 9u);
    EXPECT_TRUE(back.has_free_list);
    EXPECT_EQ(back.free_list, (std::vector<storage::PageId>{4, 8, 15}));
  }
  {
    WalRecord r;
    r.type = RecordType::kCheckpoint;
    r.txn = wal::kSystemTxn;
    wal::CatalogEntry entry;
    entry.name = "measurements";
    entry.columns = {{"id", ColumnType::kInt64, 0},
                     {"payload", ColumnType::kVarBinaryMax, 0},
                     {"short", ColumnType::kBinary, 96}};
    entry.root = 77;
    r.catalog.push_back(entry);
    r.has_free_list = true;
    r.free_list = {100};
    WalRecord back = wal::DecodeRecord(wal::EncodeRecord(r)).value();
    ASSERT_EQ(back.catalog.size(), 1u);
    ASSERT_EQ(back.catalog[0].columns.size(), 3u);
    EXPECT_EQ(back.catalog[0].columns[1].name, "payload");
    EXPECT_EQ(back.catalog[0].columns[1].type, ColumnType::kVarBinaryMax);
    EXPECT_EQ(back.catalog[0].columns[2].capacity, 96);
    EXPECT_EQ(back.catalog[0].root, 77u);
  }
}

TEST(WalRecordCodec, RejectsMalformedPayloads) {
  EXPECT_FALSE(wal::DecodeRecord({}).ok());

  WalRecord r;
  r.type = RecordType::kPageWrite;
  r.page_id = 1;
  std::vector<uint8_t> bytes = wal::EncodeRecord(r);
  std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + 40);
  EXPECT_FALSE(wal::DecodeRecord(truncated).ok());

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(wal::DecodeRecord(trailing).ok());

  std::vector<uint8_t> bad_type = bytes;
  bad_type[0] = 99;
  EXPECT_FALSE(wal::DecodeRecord(bad_type).ok());
}

// ---------------------------------------------------------------------------
// Log writer / scanner
// ---------------------------------------------------------------------------

std::vector<uint8_t> MarkerRecord(uint64_t txn) {
  WalRecord r;
  r.type = RecordType::kBegin;
  r.txn = txn;
  return wal::EncodeRecord(r);
}

std::vector<uint8_t> PageRecord(uint64_t txn, storage::PageId id,
                                uint8_t fill) {
  WalRecord r;
  r.type = RecordType::kPageWrite;
  r.txn = txn;
  r.page_id = id;
  for (int64_t i = 0; i < storage::kPageSize; ++i) r.page_image.data()[i] = fill;
  return wal::EncodeRecord(r);
}

TEST(WalLog, AppendFlushScanRoundTrip) {
  LogDevice device;
  LogWriter writer(&device);

  // A page-image record (> one log page, so it spans) between two markers.
  ASSERT_TRUE(writer.Append(MarkerRecord(1)).ok());
  ASSERT_TRUE(writer.Append(PageRecord(1, 5, 0xAB)).ok());
  wal::Lsn end = 0;
  ASSERT_TRUE(writer.Append(MarkerRecord(2), &end).ok());
  ASSERT_TRUE(writer.FlushTo(end).ok());
  EXPECT_GE(writer.durable_lsn(), end);

  // A fourth record appended but never flushed must stay invisible.
  ASSERT_TRUE(writer.Append(MarkerRecord(3)).ok());

  LogScan scan = wal::ScanLog(&device, 0).value();
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.records[0].txn, 1u);
  EXPECT_EQ(scan.records[1].type, RecordType::kPageWrite);
  EXPECT_EQ(scan.records[1].page_id, 5u);
  EXPECT_EQ(scan.records[1].page_image.data()[100], 0xAB);
  EXPECT_EQ(scan.records[2].txn, 2u);
  // LSNs are strictly increasing byte positions.
  EXPECT_LT(scan.records[0].lsn, scan.records[1].lsn);
  EXPECT_LT(scan.records[1].lsn, scan.records[2].lsn);
  EXPECT_EQ(scan.records[2].end_lsn, end);
}

TEST(WalLog, TornTailTruncatesAtFirstInvalidRecord) {
  LogDevice device;
  LogWriter writer(&device);
  ASSERT_TRUE(writer.Append(MarkerRecord(1)).ok());
  ASSERT_TRUE(writer.FlushAll().ok());
  ASSERT_TRUE(writer.Append(PageRecord(2, 9, 0x5A)).ok());
  ASSERT_TRUE(writer.FlushAll().ok());

  // Tear the tail: corrupt the last log disk page (the media never finished
  // writing it).
  int64_t last = device.disk()->page_count();
  ASSERT_TRUE(device.disk()->CorruptPageByte(
                        static_cast<storage::PageId>(last), 4000)
                  .ok());

  LogScan scan = wal::ScanLog(&device, 0).value();
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0].txn, 1u);
}

TEST(WalLog, EpochResyncSkipsDeadRegionAfterResume) {
  LogDevice device;
  {
    LogWriter writer(&device);
    ASSERT_TRUE(writer.Append(MarkerRecord(1)).ok());
    ASSERT_TRUE(writer.FlushAll().ok());
    // A multi-page record whose flush "tears": its tail page dies.
    ASSERT_TRUE(writer.Append(PageRecord(2, 9, 0x77)).ok());
    ASSERT_TRUE(writer.FlushAll().ok());
  }
  int64_t last = device.disk()->page_count();
  ASSERT_TRUE(device.disk()->CorruptPageByte(
                        static_cast<storage::PageId>(last), 512)
                  .ok());

  LogScan crash = wal::ScanLog(&device, 0).value();
  EXPECT_TRUE(crash.truncated);
  ASSERT_EQ(crash.records.size(), 1u);

  // Resume a fresh writer where the scan says (next epoch), as recovery
  // does, and append a new record over the dead region.
  LogWriter resumed(&device);
  resumed.Reset(crash.resume_page, crash.resume_lsn, crash.resume_epoch);
  ASSERT_TRUE(resumed.Append(MarkerRecord(3)).ok());
  ASSERT_TRUE(resumed.FlushAll().ok());

  // Re-scan: the stranded prefix of the torn record is a dead region the
  // epoch bump lets the reader skip; both live records come back.
  LogScan scan = wal::ScanLog(&device, 0).value();
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].txn, 1u);
  EXPECT_EQ(scan.records[1].txn, 3u);
  EXPECT_GT(scan.dead_bytes_skipped, 0);
}

// ---------------------------------------------------------------------------
// WalManager: transactions, rollback, crash, recovery
// ---------------------------------------------------------------------------

/// Creates `name` under the WAL (so recovery can re-attach it).
storage::Table* CreateLoggedTable(storage::Database* db, WalManager* w,
                                  const std::string& name) {
  storage::Table* table = db->CreateTable(name, KeyValueSchema()).value();
  EXPECT_TRUE(w->NoteTableCreated(table).ok());
  return table;
}

/// One committed transaction inserting [base, base+n) with value `val`.
void CommitInserts(storage::Database* db, WalManager* w,
                   const std::string& name, int64_t base, int64_t n,
                   int64_t val) {
  storage::Table* table = db->GetTable(name).value();
  uint64_t txn = w->Begin().value();
  ASSERT_TRUE(w->NoteTableTouched(txn, table).ok());
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table->Insert({base + i, val}).ok());
  }
  ASSERT_TRUE(w->Commit(txn).ok());
}

TEST(WalManager, CommittedTransactionSurvivesCrash) {
  storage::Database db;
  WalManager w(&db);
  CreateLoggedTable(&db, &w, "t");
  CommitInserts(&db, &w, "t", 0, 50, 1);
  CommitInserts(&db, &w, "t", 100, 50, 2);

  w.SimulateCrash();
  wal::RecoveryStats stats = w.Recover().value();
  EXPECT_EQ(stats.txns_committed, 2);
  EXPECT_EQ(stats.txns_lost, 0);
  EXPECT_EQ(stats.tables_attached, 1);

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 50; ++i) want[i] = 1;
  for (int64_t i = 100; i < 150; ++i) want[i] = 2;
  ExpectTableMatches(&db, "t", want);
  EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());
}

TEST(WalManager, UncommittedTransactionVanishesOnCrash) {
  storage::Database db;
  WalManager w(&db);
  storage::Table* table = CreateLoggedTable(&db, &w, "t");
  CommitInserts(&db, &w, "t", 0, 10, 1);

  // In-flight at the crash: logged, flushed (the flush must not promote it),
  // never committed.
  uint64_t txn = w.Begin().value();
  ASSERT_TRUE(w.NoteTableTouched(txn, table).ok());
  for (int64_t i = 100; i < 140; ++i) {
    ASSERT_TRUE(table->Insert({i, int64_t{9}}).ok());
  }
  ASSERT_TRUE(w.log_writer()->FlushAll().ok());

  w.SimulateCrash();
  wal::RecoveryStats stats = w.Recover().value();
  EXPECT_EQ(stats.txns_committed, 1);
  EXPECT_EQ(stats.txns_lost, 1);

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 10; ++i) want[i] = 1;
  ExpectTableMatches(&db, "t", want);
  EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());
}

TEST(WalManager, RollbackRestoresPreTransactionState) {
  storage::Database db;
  WalManager w(&db);
  storage::Table* table = CreateLoggedTable(&db, &w, "t");
  CommitInserts(&db, &w, "t", 0, 30, 1);

  uint64_t txn = w.Begin().value();
  ASSERT_TRUE(w.NoteTableTouched(txn, table).ok());
  for (int64_t i = 500; i < 560; ++i) {
    ASSERT_TRUE(table->Insert({i, int64_t{9}}).ok());
  }
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(table->Delete(i).value());
  }
  ASSERT_TRUE(w.Rollback(txn).ok());

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 30; ++i) want[i] = 1;
  ExpectTableMatches(&db, "t", want);
  EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());

  // And the rollback itself survives a crash: replay must not resurrect
  // the aborted writes.
  w.SimulateCrash();
  ASSERT_TRUE(w.Recover().ok());
  ExpectTableMatches(&db, "t", want);
}

// A table loaded before the WAL attached has its pages on the data disk
// (the pool wrote through until write-back turned on), and the WAL logs the
// catalog it finds at attach, so recovery re-attaches the table.
TEST(WalManager, TableLoadedBeforeWalSurvivesCrash) {
  for (bool with_mvcc : {false, true}) {
    SCOPED_TRACE(with_mvcc ? "wal + mvcc" : "wal alone");
    storage::Database db;
    engine::FunctionRegistry registry;
    engine::Executor executor(&db, &registry);
    {
      sql::Session bare(&executor);
      ASSERT_TRUE(bare.Execute("CREATE TABLE p (id BIGINT, v BIGINT)").ok());
      ASSERT_TRUE(bare.Execute("INSERT INTO p VALUES (1, 10), (2, 20)").ok());
    }
    WalManager w(&db);
    std::optional<mvcc::MvccManager> m;
    if (with_mvcc) {
      m.emplace(&db, &w);
      sql::Session s(&executor);
      ASSERT_TRUE(s.Execute("INSERT INTO p VALUES (3, 30)").ok());
    } else {
      ASSERT_NO_FATAL_FAILURE(CommitInserts(&db, &w, "p", 3, 1, 30));
    }

    w.SimulateCrash();
    ASSERT_TRUE(w.Recover().ok());
    Result<storage::Table*> p = db.GetTable("p");
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ExpectTableMatches(&db, "p", {{1, 10}, {2, 20}, {3, 30}});
    EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());
  }
}

TEST(WalManager, TableLoadedBeforeWalSurvivesCrashAtAttach) {
  // No statement runs between the attach and the crash, so nothing but the
  // attach itself can have forced the catalog records to the log device.
  for (bool with_mvcc : {false, true}) {
    SCOPED_TRACE(with_mvcc ? "wal + mvcc" : "wal alone");
    storage::Database db;
    engine::FunctionRegistry registry;
    engine::Executor executor(&db, &registry);
    {
      sql::Session bare(&executor);
      ASSERT_TRUE(bare.Execute("CREATE TABLE p (id BIGINT, v BIGINT)").ok());
      ASSERT_TRUE(bare.Execute("INSERT INTO p VALUES (1, 10), (2, 20)").ok());
    }
    WalManager w(&db);
    ASSERT_TRUE(w.attach_status().ok()) << w.attach_status().ToString();
    std::optional<mvcc::MvccManager> m;
    if (with_mvcc) m.emplace(&db, &w);

    w.SimulateCrash();
    ASSERT_TRUE(w.Recover().ok());
    Result<storage::Table*> p = db.GetTable("p");
    ASSERT_TRUE(p.ok()) << p.status().ToString();
    ExpectTableMatches(&db, "p", {{1, 10}, {2, 20}});
    EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());
  }
}

TEST(WalManager, RecoveryIsIdempotent) {
  storage::Database db;
  WalManager w(&db);
  CreateLoggedTable(&db, &w, "t");
  CommitInserts(&db, &w, "t", 0, 80, 1);
  ASSERT_TRUE(w.Checkpoint().ok());
  CommitInserts(&db, &w, "t", 200, 80, 2);

  w.SimulateCrash();
  ASSERT_TRUE(w.Recover().ok());
  uint64_t fp1 = 0, fp2 = 0;
  ASSERT_NO_FATAL_FAILURE(fp1 = DiskFingerprint(db.disk()));
  // Replaying the same log again must be a byte-identical no-op.
  ASSERT_TRUE(w.Recover().ok());
  ASSERT_NO_FATAL_FAILURE(fp2 = DiskFingerprint(db.disk()));
  EXPECT_EQ(fp1, fp2);

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 80; ++i) want[i] = 1;
  for (int64_t i = 200; i < 280; ++i) want[i] = 2;
  ExpectTableMatches(&db, "t", want);
}

TEST(WalManager, TornLogTailRecoversPrefixAndResumes) {
  storage::Database db;
  WalManager w(&db);
  CreateLoggedTable(&db, &w, "t");
  CommitInserts(&db, &w, "t", 0, 20, 1);    // txn A
  CommitInserts(&db, &w, "t", 100, 20, 2);  // txn B
  CommitInserts(&db, &w, "t", 200, 40, 3);  // txn C — becomes the torn tail

  // The media tears the last log page: C's commit never fully landed.
  LogDevice* device = w.log_device();
  int64_t last = device->disk()->page_count();
  ASSERT_TRUE(device->disk()
                  ->CorruptPageByte(static_cast<storage::PageId>(last), 1024)
                  .ok());

  w.SimulateCrash();
  wal::RecoveryStats stats = w.Recover().value();
  EXPECT_TRUE(stats.truncated_tail);

  // A and B are intact; C is gone (wholly or — never — partially: the row
  // count must match an exact prefix of committed transactions).
  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 20; ++i) want[i] = 1;
  for (int64_t i = 100; i < 120; ++i) want[i] = 2;
  ExpectTableMatches(&db, "t", want);

  // The log must keep working past the scar: a post-recovery transaction
  // commits, survives another crash, and the dead region stays skipped.
  CommitInserts(&db, &w, "t", 300, 20, 4);
  w.SimulateCrash();
  ASSERT_TRUE(w.Recover().ok());
  for (int64_t i = 300; i < 320; ++i) want[i] = 4;
  ExpectTableMatches(&db, "t", want);
  EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());
}

TEST(WalManager, CheckpointCrashAtEveryStepRecovers) {
  for (int step = 1; step <= 4; ++step) {
    SCOPED_TRACE("checkpoint crash step " + std::to_string(step));
    storage::Database db;
    WalManager w(&db);
    CreateLoggedTable(&db, &w, "t");
    CommitInserts(&db, &w, "t", 0, 60, 1);
    ASSERT_TRUE(w.Checkpoint().ok());  // a valid earlier checkpoint exists
    CommitInserts(&db, &w, "t", 100, 60, 2);

    w.set_checkpoint_crash_step(step);
    Status st = w.Checkpoint();
    ASSERT_FALSE(st.ok());

    w.SimulateCrash();
    wal::RecoveryStats stats = w.Recover().value();
    EXPECT_TRUE(stats.used_checkpoint);

    std::map<int64_t, int64_t> want;
    for (int64_t i = 0; i < 60; ++i) want[i] = 1;
    for (int64_t i = 100; i < 160; ++i) want[i] = 2;
    ExpectTableMatches(&db, "t", want);
    EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());

    // The half-finished checkpoint must not have wedged the log.
    CommitInserts(&db, &w, "t", 300, 10, 3);
    ASSERT_TRUE(w.Checkpoint().ok());
    w.SimulateCrash();
    ASSERT_TRUE(w.Recover().ok());
    for (int64_t i = 300; i < 310; ++i) want[i] = 3;
    ExpectTableMatches(&db, "t", want);
  }
}

TEST(WalManager, CheckpointShortensReplay) {
  storage::Database db;
  WalManager w(&db);
  CreateLoggedTable(&db, &w, "t");
  CommitInserts(&db, &w, "t", 0, 200, 1);
  w.SimulateCrash();
  wal::RecoveryStats full = w.Recover().value();
  EXPECT_FALSE(full.used_checkpoint);

  ASSERT_TRUE(w.Checkpoint().ok());
  CommitInserts(&db, &w, "t", 1000, 5, 2);
  w.SimulateCrash();
  wal::RecoveryStats after = w.Recover().value();
  EXPECT_TRUE(after.used_checkpoint);
  // Replay starts at the checkpoint: far fewer records than the full scan.
  EXPECT_LT(after.records_scanned, full.records_scanned);
  EXPECT_LT(after.pages_redone, full.pages_redone);

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 200; ++i) want[i] = 1;
  for (int64_t i = 1000; i < 1005; ++i) want[i] = 2;
  ExpectTableMatches(&db, "t", want);
}

// ---------------------------------------------------------------------------
// The crash-point torture matrix (the headline test)
// ---------------------------------------------------------------------------

/// The scripted workload: kTxns transactions of mixed inserts and deletes
/// over two tables, with a checkpoint before transaction 6. `model0/model1`
/// mirror what the tables must hold after every COMMIT.
constexpr int kTortureTxns = 12;

void ApplyTortureTxn(int k, storage::Database* db, WalManager* w,
                     std::map<int64_t, int64_t>* model0,
                     std::map<int64_t, int64_t>* model1, bool commit) {
  storage::Table* t0 = db->GetTable("t0").value();
  storage::Table* t1 = db->GetTable("t1").value();
  uint64_t txn = w->Begin().value();
  ASSERT_TRUE(w->NoteTableTouched(txn, t0).ok());
  ASSERT_TRUE(w->NoteTableTouched(txn, t1).ok());

  std::map<int64_t, int64_t> next0 = *model0, next1 = *model1;
  for (int64_t i = 0; i < 20; ++i) {
    int64_t key = k * 100 + i;
    ASSERT_TRUE(t0->Insert({key, int64_t{k}}).ok());
    next0[key] = k;
  }
  if (k >= 2 && k % 3 == 2) {
    // Delete half of the rows transaction k-2 inserted into t0.
    for (int64_t i = 0; i < 10; ++i) {
      int64_t key = (k - 2) * 100 + i;
      ASSERT_TRUE(t0->Delete(key).value());
      next0.erase(key);
    }
  }
  if (k % 2 == 1) {
    for (int64_t i = 0; i < 5; ++i) {
      int64_t key = k * 10 + i;
      ASSERT_TRUE(t1->Insert({key, int64_t{-k}}).ok());
      next1[key] = -k;
    }
  }
  if (!commit) return;  // left in-flight: the crash site is mid-transaction
  ASSERT_TRUE(w->Commit(txn).ok());
  *model0 = std::move(next0);
  *model1 = std::move(next1);
}

TEST(WalTorture, CrashPointMatrix) {
  for (int crash_at = 0; crash_at <= kTortureTxns; ++crash_at) {
    for (bool mid_txn : {false, true}) {
      if (mid_txn && crash_at == kTortureTxns) continue;
      SCOPED_TRACE("crash after " + std::to_string(crash_at) +
                   " committed txns" + (mid_txn ? " + one in flight" : ""));
      // A 64-page pool forces dirty-page eviction mid-workload, exercising
      // the WAL-before-data fence on the eviction path.
      storage::Database db(storage::DiskConfig{}, /*buffer_pool_pages=*/64);
      WalManager w(&db);
      CreateLoggedTable(&db, &w, "t0");
      CreateLoggedTable(&db, &w, "t1");
      // Txn-0 writes (the creates) are durable only once the log is
      // flushed; make the setup survive a crash before the first commit.
      ASSERT_TRUE(w.log_writer()->FlushAll().ok());

      std::map<int64_t, int64_t> model0, model1;
      for (int k = 0; k < crash_at; ++k) {
        if (k == 6) {
          ASSERT_TRUE(w.Checkpoint().ok());
        }
        ASSERT_NO_FATAL_FAILURE(
            ApplyTortureTxn(k, &db, &w, &model0, &model1, /*commit=*/true));
      }
      if (mid_txn) {
        std::map<int64_t, int64_t> scratch0 = model0, scratch1 = model1;
        ASSERT_NO_FATAL_FAILURE(ApplyTortureTxn(crash_at, &db, &w, &scratch0,
                                                &scratch1, /*commit=*/false));
        // Force the in-flight transaction's records to disk: recovery must
        // see them in the log and still refuse to replay them.
        ASSERT_TRUE(w.log_writer()->FlushAll().ok());
      }

      w.SimulateCrash();
      wal::RecoveryStats stats = w.Recover().value();
      // Replay starts at the checkpoint (taken before txn 6), so earlier
      // transactions are not in the scanned suffix.
      EXPECT_EQ(stats.txns_committed, crash_at <= 6 ? crash_at : crash_at - 6);
      EXPECT_EQ(stats.used_checkpoint, crash_at > 6);
      EXPECT_EQ(stats.txns_lost, mid_txn ? 1 : 0);

      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t0", model0));
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t1", model1));
      EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());

      // The log must remain writable at every crash point: one more
      // committed transaction survives a second crash.
      ASSERT_NO_FATAL_FAILURE(ApplyTortureTxn(kTortureTxns + 1, &db, &w,
                                              &model0, &model1,
                                              /*commit=*/true));
      w.SimulateCrash();
      ASSERT_TRUE(w.Recover().ok());
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t0", model0));
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t1", model1));
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrent-writer crash torture: two interleaved MVCC transactions
// ---------------------------------------------------------------------------

/// One round of two concurrently open transactions with disjoint keys,
/// alternating their writes before committing A then B. Under MVCC the
/// writes buffer in per-transaction overlays, so both stay open across each
/// other's DML — the interleaving the legacy single-writer WAL cannot form.
void ApplyInterleavedRound(int k, storage::Database* db, mvcc::MvccManager* m,
                           std::map<int64_t, int64_t>* model0,
                           std::map<int64_t, int64_t>* model1,
                           std::function<void()> arm_crash,
                           Status* b_commit_status) {
  storage::Table* t0 = db->GetTable("t0").value();
  storage::Table* t1 = db->GetTable("t1").value();
  uint64_t a = m->Begin().value();
  uint64_t b = m->Begin().value();

  std::map<int64_t, int64_t> a0 = *model0, a1 = *model1;
  std::map<int64_t, int64_t> b0, b1;  // B's writes, folded in only on commit
  for (int64_t i = 0; i < 6; ++i) {
    int64_t ka = k * 100 + i, kb = k * 100 + 50 + i;
    ASSERT_TRUE(m->ApplyInsert(a, t0, {ka, int64_t{k}}).ok());
    ASSERT_TRUE(m->ApplyInsert(b, t0, {kb, int64_t{-k}}).ok());
    ASSERT_TRUE(m->ApplyInsert(a, t1, {ka, int64_t{k + 1}}).ok());
    ASSERT_TRUE(m->ApplyInsert(b, t1, {kb, int64_t{-k - 1}}).ok());
    a0[ka] = k;
    a1[ka] = k + 1;
    b0[kb] = -k;
    b1[kb] = -k - 1;
  }
  if (k > 0 && a1.count((k - 1) * 100) != 0) {
    // A also deletes a key an earlier round committed, mixing deletes into
    // the replayed ops.
    ASSERT_TRUE(m->ApplyDelete(a, t1, (k - 1) * 100).value());
    a1.erase((k - 1) * 100);
  }

  ASSERT_TRUE(m->Commit(a).ok());
  *model0 = std::move(a0);
  *model1 = std::move(a1);

  if (arm_crash != nullptr) arm_crash();
  Status st = m->Commit(b);
  if (b_commit_status != nullptr) *b_commit_status = st;
  if (st.ok()) {
    model0->insert(b0.begin(), b0.end());
    model1->insert(b1.begin(), b1.end());
  }
}

TEST(WalTorture, ConcurrentWriterCrashMatrix) {
  // Crash sites spanning both layers of the commit path: the MVCC replay
  // steps (before / mid / after replay) and the WAL commit-record steps
  // (before the append / appended but unflushed).
  struct Site {
    bool wal;  // arm the WAL's crash step instead of the MVCC replay's
    int step;
    const char* name;
  };
  const Site kSites[] = {
      {false, 1, "mvcc: before replay"},
      {false, 2, "mvcc: mid replay"},
      {false, 3, "mvcc: replay done, no commit record"},
      {true, 1, "wal: before commit record"},
      {true, 2, "wal: commit record appended, unflushed"},
  };
  constexpr int kRounds = 3;
  for (const Site& site : kSites) {
    for (int crash_round = 0; crash_round < kRounds; ++crash_round) {
      SCOPED_TRACE(std::string(site.name) + ", crash in round " +
                   std::to_string(crash_round));
      storage::Database db(storage::DiskConfig{}, /*buffer_pool_pages=*/64);
      WalManager w(&db);
      mvcc::MvccManager m(&db, &w);
      CreateLoggedTable(&db, &w, "t0");
      CreateLoggedTable(&db, &w, "t1");
      ASSERT_TRUE(w.log_writer()->FlushAll().ok());

      std::map<int64_t, int64_t> model0, model1;
      for (int k = 0; k < crash_round; ++k) {
        ASSERT_NO_FATAL_FAILURE(ApplyInterleavedRound(
            k, &db, &m, &model0, &model1, nullptr, nullptr));
      }
      Status b_status;
      auto arm = [&] {
        if (site.wal) {
          w.set_commit_crash_step(site.step);
        } else {
          m.set_commit_crash_step(site.step);
        }
      };
      ASSERT_NO_FATAL_FAILURE(ApplyInterleavedRound(
          crash_round, &db, &m, &model0, &model1, arm, &b_status));
      EXPECT_FALSE(b_status.ok()) << "armed crash did not fire";
      // The models now hold every fully committed transaction; B's
      // crash-round writes were folded in only if its commit returned OK
      // (it did not), so they are expected gone — except at the
      // appended-but-unflushed site, where durability is legitimately
      // nondeterministic and resolved below.

      w.SimulateCrash();
      wal::RecoveryStats stats = w.Recover().value();
      EXPECT_EQ(stats.txns_lost > 0 || stats.txns_committed > 0, true);

      if (site.wal && site.step == 2) {
        // The commit record reached the log buffer but not necessarily the
        // disk. Either the whole transaction survived or none of it did.
        storage::Table* t0 = db.GetTable("t0").value();
        bool survived =
            t0->Lookup(crash_round * 100 + 50).value().has_value();
        if (survived) {
          for (int64_t i = 0; i < 6; ++i) {
            model0[crash_round * 100 + 50 + i] = -crash_round;
            model1[crash_round * 100 + 50 + i] = -crash_round - 1;
          }
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t0", model0));
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t1", model1));
      EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());

      // Recovery is idempotent: crash again with no new work and the data
      // disk fingerprint must not move.
      uint64_t fp1 = 0;
      ASSERT_NO_FATAL_FAILURE(fp1 = DiskFingerprint(db.disk()));
      w.SimulateCrash();
      ASSERT_TRUE(w.Recover().ok());
      uint64_t fp2 = 0;
      ASSERT_NO_FATAL_FAILURE(fp2 = DiskFingerprint(db.disk()));
      EXPECT_EQ(fp1, fp2) << "recovery is not idempotent";
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t0", model0));
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t1", model1));

      // And the database stays writable: one more interleaved round
      // commits both transactions cleanly.
      ASSERT_NO_FATAL_FAILURE(ApplyInterleavedRound(
          kRounds + 1, &db, &m, &model0, &model1, nullptr, nullptr));
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t0", model0));
      ASSERT_NO_FATAL_FAILURE(ExpectTableMatches(&db, "t1", model1));
    }
  }
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

TEST(WalManager, GroupCommitBatchesConcurrentCommitters) {
  // With a generous window, committers arriving while the leader lingers
  // share one physical flush. Retried to absorb scheduler pathologies.
  bool batched = false;
  for (int attempt = 0; attempt < 3 && !batched; ++attempt) {
    storage::Database db;
    WalConfig config;
    config.group_commit_window_us = 20000;
    WalManager w(&db, config);
    CreateLoggedTable(&db, &w, "t");

    constexpr int kThreads = 4, kTxnsPerThread = 5;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        for (int i = 0; i < kTxnsPerThread; ++i) {
          CommitInserts(&db, &w, "t",
                        (t * kTxnsPerThread + i) * 1000, 3, t);
        }
      });
    }
    for (std::thread& t : threads) t.join();

    wal::GroupCommitStats stats = w.log_writer()->group_commit_stats();
    EXPECT_GE(stats.committers, kThreads * kTxnsPerThread);
    batched = stats.max_batch >= 2;

    // Whatever the batching, every commit must be durable.
    w.SimulateCrash();
    ASSERT_TRUE(w.Recover().ok());
    EXPECT_EQ(db.GetTable("t").value()->row_count(),
              int64_t{kThreads} * kTxnsPerThread * 3);
  }
  EXPECT_TRUE(batched) << "no two committers ever shared a flush";
}

// ---------------------------------------------------------------------------
// Negative control: write-back without a WAL demonstrably loses data
// ---------------------------------------------------------------------------

TEST(WalNegativeControl, WriteBackWithoutWalLosesCommittedData) {
  storage::Database db;
  db.buffer_pool()->SetWriteBack(true);  // dirty pages buffered, no log
  storage::Table* table = db.CreateTable("t", KeyValueSchema()).value();
  for (int64_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(table->Insert({i, int64_t{1}}).ok());
  }
  ASSERT_TRUE(table->Lookup(25).value().has_value());
  storage::PageId root = table->clustered_index().root_page();

  // The crash: the cache dies with the process; nothing ever hit the disk.
  db.buffer_pool()->DropCacheNoFlush();
  db.ClearCatalog();

  // Re-attaching at the old root finds no usable tree — the committed rows
  // are simply gone. (With a WalManager the same sequence recovers fully;
  // see CommittedTransactionSurvivesCrash.)
  Result<std::unique_ptr<storage::Table>> attached = storage::Table::Attach(
      "t", KeyValueSchema(), root, db.buffer_pool(), db.blob_store());
  bool lost = !attached.ok();
  if (!lost) {
    Result<std::optional<storage::Row>> row = (*attached)->Lookup(25);
    lost = !row.ok() || !row->has_value();
  }
  EXPECT_TRUE(lost);
}

// ---------------------------------------------------------------------------
// SQL surface: BEGIN/COMMIT/ROLLBACK/CHECKPOINT, EXPLAIN ANALYZE DML
// ---------------------------------------------------------------------------

class WalSqlTest : public ::testing::Test {
 protected:
  WalSqlTest()
      : wal_(&db_), mvcc_(&db_, &wal_), executor_(&db_, &registry_),
        session_(&executor_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
    EXPECT_TRUE(
        session_.Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  }

  int64_t Count() {
    auto rs = session_.Execute("SELECT COUNT(id) FROM t").value();
    return rs[0].rows[0][0].AsInt().value();
  }

  storage::Database db_;
  WalManager wal_;
  mvcc::MvccManager mvcc_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
  sql::Session session_;
};

TEST_F(WalSqlTest, ExplicitTransactionsCommitAndRollback) {
  ASSERT_TRUE(session_.Execute("INSERT INTO t VALUES (1, 10)").ok());
  ASSERT_TRUE(session_
                  .Execute("BEGIN TRANSACTION "
                           "INSERT INTO t VALUES (2, 20) "
                           "INSERT INTO t VALUES (3, 30) "
                           "COMMIT")
                  .ok());
  EXPECT_EQ(Count(), 3);
  ASSERT_TRUE(session_
                  .Execute("BEGIN TRAN "
                           "INSERT INTO t VALUES (4, 40) "
                           "ROLLBACK")
                  .ok());
  EXPECT_EQ(Count(), 3);
  EXPECT_FALSE(session_.in_transaction());

  // Everything committed so far survives a crash.
  wal_.SimulateCrash();
  ASSERT_TRUE(wal_.Recover().ok());
  EXPECT_EQ(Count(), 3);
}

TEST_F(WalSqlTest, TransactionStatementErrors) {
  EXPECT_FALSE(session_.Execute("COMMIT").ok());
  EXPECT_FALSE(session_.Execute("ROLLBACK").ok());
  ASSERT_TRUE(session_.Execute("BEGIN TRANSACTION").ok());
  EXPECT_FALSE(session_.Execute("BEGIN TRANSACTION").ok());  // no nesting
  EXPECT_FALSE(session_.Execute("CHECKPOINT").ok());  // not inside a txn
  ASSERT_TRUE(session_.Execute("ROLLBACK").ok());
  EXPECT_TRUE(session_.Execute("CHECKPOINT").ok());
}

// Regression: a crash kills the WAL-side transaction, but the session
// object survives and still thinks its BEGIN is open. If it doesn't
// notice, later DML runs outside any transaction (NoteTableTouched no-ops
// against the dead txn id, autocommit is skipped) and is silently lost at
// the next crash.
TEST_F(WalSqlTest, SessionNoticesCrashKilledItsTransaction) {
  ASSERT_TRUE(session_
                  .Execute("BEGIN TRANSACTION "
                           "INSERT INTO t VALUES (1, 10)")
                  .ok());
  EXPECT_TRUE(session_.in_transaction());
  wal_.SimulateCrash();
  ASSERT_TRUE(wal_.Recover().ok());
  EXPECT_EQ(Count(), 0);

  // COMMIT of the dead transaction must fail, not fake durability.
  EXPECT_FALSE(session_.Execute("COMMIT").ok());
  // DML now autocommits again — and therefore survives the next crash.
  ASSERT_TRUE(session_.Execute("INSERT INTO t VALUES (2, 20)").ok());
  EXPECT_FALSE(session_.in_transaction());
  wal_.SimulateCrash();
  ASSERT_TRUE(wal_.Recover().ok());
  EXPECT_EQ(Count(), 1);
  // And a fresh BEGIN works.
  ASSERT_TRUE(session_
                  .Execute("BEGIN TRAN "
                           "INSERT INTO t VALUES (3, 30) "
                           "COMMIT")
                  .ok());
  EXPECT_EQ(Count(), 2);
}

TEST_F(WalSqlTest, FailedAutocommitStatementRollsBackCleanly) {
  ASSERT_TRUE(session_.Execute("INSERT INTO t VALUES (1, 10)").ok());
  // The second VALUES row has the wrong arity: the statement fails after
  // the first row was already inserted, and autocommit must undo it.
  EXPECT_FALSE(session_.Execute("INSERT INTO t VALUES (2, 20), (3)").ok());
  EXPECT_EQ(Count(), 1);
  EXPECT_FALSE(session_.in_transaction());
}

TEST_F(WalSqlTest, CheckpointStatementPersistsAndShortensReplay) {
  ASSERT_TRUE(
      session_.Execute("INSERT INTO t VALUES (1, 10), (2, 20)").ok());
  ASSERT_TRUE(session_.Execute("CHECKPOINT").ok());
  ASSERT_TRUE(session_.Execute("DELETE FROM t WHERE id = 1").ok());
  wal_.SimulateCrash();
  wal::RecoveryStats stats = wal_.Recover().value();
  EXPECT_TRUE(stats.used_checkpoint);
  EXPECT_EQ(Count(), 1);
}

TEST_F(WalSqlTest, ExplainAnalyzeInsertAndDeleteCarryWalCounters) {
  ASSERT_TRUE(
      session_.Execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)").ok());

  auto find_row = [](const engine::ResultSet& rs, const std::string& op)
      -> const std::vector<Value>* {
    for (const auto& row : rs.rows) {
      std::string got = row[0].AsString().value();
      got.erase(0, got.find_first_not_of(' '));
      if (got == op) return &row;
    }
    return nullptr;
  };

  auto ins = session_.Execute("EXPLAIN ANALYZE INSERT INTO t VALUES (9, 90)")
                 .value();
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(ins[0].columns, obs::ProfileColumns());
  EXPECT_EQ(ins[0].rows[0][0].AsString().value(), "insert");
  EXPECT_EQ(ins[0].rows[0][1].AsString().value(), "t");
  EXPECT_EQ(ins[0].rows[0][3].AsInt().value(), 1);  // rows_out = affected
  const std::vector<Value>* wal_row = find_row(ins[0], "wal");
  ASSERT_NE(wal_row, nullptr);
  std::string detail = (*wal_row)[1].AsString().value();
  EXPECT_NE(detail.find("records="), std::string::npos);
  EXPECT_NE(detail.find("bytes="), std::string::npos);
  EXPECT_NE(detail.find("flushes="), std::string::npos);
  // An autocommitted INSERT logs at least begin + one page + commit and
  // forces exactly its own group-commit flush.
  EXPECT_EQ(detail.find("records=0"), std::string::npos);
  EXPECT_EQ(detail.find("flushes=0"), std::string::npos);

  auto del =
      session_.Execute("EXPLAIN ANALYZE DELETE FROM t WHERE id <= 2").value();
  ASSERT_EQ(del.size(), 1u);
  EXPECT_EQ(del[0].rows[0][0].AsString().value(), "delete");
  EXPECT_EQ(del[0].rows[0][3].AsInt().value(), 2);
  ASSERT_NE(find_row(del[0], "wal"), nullptr);
  // The DELETE's key scan is profiled as a child of the delete node.
  EXPECT_NE(find_row(del[0], "scan"), nullptr);
  EXPECT_EQ(Count(), 2);
}

TEST(WalSql, BeginWithoutWalFails) {
  storage::Database db;  // no WalManager attached
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);
  sql::Session session(&executor);
  EXPECT_FALSE(session.Execute("BEGIN TRANSACTION").ok());
  EXPECT_FALSE(session.Execute("CHECKPOINT").ok());
}

// ---------------------------------------------------------------------------
// Recovery determinism across scan worker counts (property)
// ---------------------------------------------------------------------------

uint64_t RunSqlWorkloadCrashRecoverFingerprint(int workers) {
  storage::Database db;
  WalManager w(&db);
  mvcc::MvccManager m(&db, &w);
  engine::FunctionRegistry registry;
  engine::Executor executor(&db, &registry);
  EXPECT_TRUE(udfs::RegisterAllUdfs(&registry).ok());
  executor.set_scan_workers(workers);
  executor.set_min_pages_per_worker(0);
  sql::Session session(&executor);

  EXPECT_TRUE(session.Execute("CREATE TABLE dt (id BIGINT, v BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 300; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i % 7) + ")";
  }
  EXPECT_TRUE(session.Execute("INSERT INTO dt VALUES " + values).ok());
  // The DELETE's key scan runs with `workers` parallel workers.
  EXPECT_TRUE(session.Execute("DELETE FROM dt WHERE v = 3").ok());
  EXPECT_TRUE(session
                  .Execute("BEGIN TRANSACTION "
                           "INSERT INTO dt VALUES (9000, 1) "
                           "COMMIT")
                  .ok());
  EXPECT_TRUE(session
                  .Execute("BEGIN TRANSACTION "
                           "INSERT INTO dt VALUES (9001, 2) "
                           "ROLLBACK")
                  .ok());

  w.SimulateCrash();
  EXPECT_TRUE(w.Recover().ok());
  uint64_t fp = 0;
  [&]() { ASSERT_NO_FATAL_FAILURE(fp = DiskFingerprint(db.disk())); }();
  return fp;
}

TEST(WalProperty, RecoveredDatabaseIsIdenticalAcrossWorkerCounts) {
  uint64_t serial = RunSqlWorkloadCrashRecoverFingerprint(1);
  uint64_t parallel = RunSqlWorkloadCrashRecoverFingerprint(4);
  EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------------------
// Fault-seeded recovery: transient log-read errors
// ---------------------------------------------------------------------------

TEST(WalManager, RecoverySurvivesTransientLogReadFaults) {
  storage::Database db;
  WalManager w(&db);
  CreateLoggedTable(&db, &w, "t");
  // Enough traffic to span several log pages, so the recovery scan issues
  // multiple reads through the faulted disk.
  CommitInserts(&db, &w, "t", 0, 200, 1);
  CommitInserts(&db, &w, "t", 1000, 200, 2);

  w.SimulateCrash();

  // Arm deterministic transient read errors against the header page and the
  // first log pages — each burst below the retry budget. Without the bounded
  // retry in LogDevice the chain scan would mistake the first fault for the
  // end of the log and silently drop committed transactions.
  storage::SimulatedDisk* disk = w.log_device()->disk();
  storage::FaultInjector* inj = disk->EnableFaults(storage::FaultConfig{});
  ASSERT_GE(w.log_device()->max_read_attempts(), 3);
  inj->ArmTransientReadErrors(1, 2);  // header disk page
  for (storage::PageId p = wal::kFirstLogDiskPage;
       p < wal::kFirstLogDiskPage + 4; ++p) {
    inj->ArmTransientReadErrors(p, 2);
  }
  storage::IoStats before = disk->stats();

  wal::RecoveryStats stats = w.Recover().value();
  EXPECT_EQ(stats.txns_committed, 2);
  EXPECT_EQ(stats.txns_lost, 0);

  storage::IoStats delta = disk->stats() - before;
  EXPECT_GT(delta.read_errors, 0);
  EXPECT_GT(delta.read_retries, 0);
  EXPECT_GT(delta.transient_faults_healed, 0);

  std::map<int64_t, int64_t> want;
  for (int64_t i = 0; i < 200; ++i) want[i] = 1;
  for (int64_t i = 1000; i < 1200; ++i) want[i] = 2;
  ExpectTableMatches(&db, "t", want);
  EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());
}

TEST(WalManager, PersistentLogFaultExhaustsRetriesAndTruncates) {
  storage::Database db;
  WalManager w(&db);
  CreateLoggedTable(&db, &w, "t");
  CommitInserts(&db, &w, "t", 0, 5, 1);

  w.SimulateCrash();
  // A burst beyond the retry budget behaves like a genuinely dead page:
  // the scan ends there and recovery proceeds with the readable prefix.
  storage::FaultInjector* inj =
      w.log_device()->disk()->EnableFaults(storage::FaultConfig{});
  inj->ArmTransientReadErrors(wal::kFirstLogDiskPage,
                              w.log_device()->max_read_attempts() + 4);
  wal::RecoveryStats stats = w.Recover().value();
  EXPECT_EQ(stats.txns_committed, 0);
  EXPECT_TRUE(storage::VerifyDatabase(&db).issues.empty());
}

}  // namespace
}  // namespace sqlarray
