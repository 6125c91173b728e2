// Thread-safe, lock-striped LRU buffer pool over the simulated disk.
//
// Table 1 was measured with a cold cache ("the database server cache was
// explicitly cleared before each performance test run"); ClearCache()
// reproduces that, and hit/miss counters let benches verify their cache
// assumptions.
//
// Concurrency: the cache is partitioned into lock-striped shards (page id
// modulo shard count, so a sequential leaf chain stripes evenly across
// shards). Each shard has its own mutex, hash map, and LRU list; hit/miss/
// pin counters are atomics. All parallel scan workers therefore share ONE
// cache — ClearCache() means the same thing in serial and parallel runs —
// instead of the former private pool per worker that bypassed it. Small
// pools (below one reasonable shard's worth of pages) collapse to a single
// shard so exact-LRU eviction semantics are preserved for tests and
// fine-grained cache experiments.
//
// Fetches return a PinnedPage guard: the entry cannot be evicted while any
// guard on it lives, which closes the old pointer-invalidation hazard where
// a returned Page* could be evicted mid-use. Reads that fail are retried a
// bounded number of times with modeled backoff (the SQL Server read-retry
// behaviour); faults that persist past the retry budget escalate to
// kCorruption naming the page.
#pragma once

#include <atomic>
#include <cassert>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "storage/disk.h"

namespace sqlarray::storage {

class BufferPool;

/// Log sequence number: a byte offset into the write-ahead log's record
/// stream. Defined here (not in src/wal/) so the pool can order dirty-page
/// flushes against the log without depending on the WAL library.
using Lsn = uint64_t;

/// Callbacks the WAL installs so the pool enforces write-ahead ordering.
/// Both may be empty (write-back without durability — the negative-control
/// configuration the recovery tests use to demonstrate data loss).
struct WalPageHook {
  /// Appends a full-page-image redo record for (id, image) and returns the
  /// log position that must be durable before this image may reach the data
  /// disk. Called OUTSIDE any shard lock (it may re-enter the pool to read
  /// the page's previous image for rollback).
  std::function<Result<Lsn>(PageId, const Page&)> log_page_write;
  /// Makes the log durable at least up to `lsn` — the WAL-before-data fence
  /// the pool calls before a dirty page is written to the data disk. Called
  /// under a shard lock; must not re-enter the pool.
  std::function<Status(Lsn)> flush_log_to;
};

/// Move-only RAII pin over one page image. For pool-backed pins the entry
/// stays resident (and un-evictable) until the guard dies; every pin also
/// shares ownership of the image itself, so a concurrent copy-on-write
/// replacement of the cached page can never invalidate a reader's view.
/// Ownership-only pins (no pool) carry images that live outside the cache:
/// version-chain entries, transaction overlay pages, log-replay images.
class PinnedPage {
 public:
  PinnedPage() = default;
  PinnedPage(PinnedPage&& o) noexcept { *this = std::move(o); }
  PinnedPage& operator=(PinnedPage&& o) noexcept {
    Release();
    pool_ = std::exchange(o.pool_, nullptr);
    id_ = std::exchange(o.id_, kNullPage);
    owner_ = std::move(o.owner_);
    o.owner_.reset();
    return *this;
  }
  PinnedPage(const PinnedPage&) = delete;
  PinnedPage& operator=(const PinnedPage&) = delete;
  ~PinnedPage() { Release(); }

  const Page* get() const { return owner_.get(); }
  const Page& operator*() const { return *owner_; }
  const Page* operator->() const { return owner_.get(); }
  explicit operator bool() const { return owner_ != nullptr; }
  PageId id() const { return id_; }

  /// Wraps an image that lives outside any pool (version chains, overlays).
  static PinnedPage FromImage(PageId id, std::shared_ptr<const Page> image) {
    return PinnedPage(nullptr, id, std::move(image));
  }

  /// Drops the pin early.
  void Release();

 private:
  friend class BufferPool;
  PinnedPage(BufferPool* pool, PageId id, std::shared_ptr<const Page> page)
      : pool_(pool), id_(id), owner_(std::move(page)) {}

  BufferPool* pool_ = nullptr;
  PageId id_ = kNullPage;
  std::shared_ptr<const Page> owner_;
};

/// Observes copy-on-write page replacements so an MVCC layer can chain the
/// superseded images. Called UNDER the owning shard's lock, immediately
/// before the new image is installed; implementations must not re-enter the
/// pool. `old_image` is null when the page had no prior cached image AND no
/// readable disk content (a freshly allocated page).
class VersionSink {
 public:
  virtual ~VersionSink() = default;
  virtual void OnPageWrite(PageId id, std::shared_ptr<const Page> old_image,
                           Lsn new_lsn) = 0;
};

/// A read-through / write-through sharded LRU page cache with pinning.
/// Safe for concurrent use from many threads.
class BufferPool {
 public:
  /// `capacity_pages` bounds resident pages across all shards (default
  /// 64 MB worth). Pinned pages never count as eviction victims, so the
  /// pool may transiently exceed capacity while many pins are held.
  /// `shards` of 0 picks automatically: one shard per kShardCapacityFloor
  /// pages of capacity, up to kMaxShards; tiny pools get exactly one shard
  /// (global LRU order preserved).
  explicit BufferPool(SimulatedDisk* disk, int64_t capacity_pages = 8192,
                      int shards = 0);

  /// Fetches a page via the cache and pins it. The page stays resident until
  /// the returned guard dies. Transient read faults are retried up to
  /// max_read_attempts() with modeled backoff; persistent failures escalate
  /// to kCorruption naming the page id.
  Result<PinnedPage> GetPage(PageId id);

  /// Writes a page. In the default write-through mode this updates the
  /// cache entry (if resident) and the disk. In write-back mode the image
  /// is logged via the WAL hook (when installed), cached DIRTY, and only
  /// reaches the disk at eviction, FlushPage, or FlushAllDirty — each of
  /// which first forces the log durable up to the page's last_lsn.
  Status WritePage(PageId id, const Page& page);

  /// Switches between write-through (default; every existing caller's
  /// semantics) and write-back (dirty pages buffered for the WAL).
  void SetWriteBack(bool enabled) { write_back_ = enabled; }
  bool write_back() const { return write_back_; }

  /// Installs / clears the WAL ordering callbacks (write-back mode only).
  void SetWalHook(WalPageHook hook) { wal_hook_ = std::move(hook); }

  /// Installs / clears the MVCC version sink (write-back mode only). While
  /// set, every logged page write hands the superseded image to the sink
  /// before the replacement becomes visible, so snapshot readers can keep
  /// serving the old version. Null clears.
  void SetVersionSink(VersionSink* sink) { version_sink_ = sink; }

  /// Dirty-state snapshot of one cached page (rollback bookkeeping).
  struct PageState {
    bool present = false;
    bool dirty = false;
    Lsn rec_lsn = 0;   ///< LSN that first dirtied the page
    Lsn last_lsn = 0;  ///< LSN of the latest logged image
  };
  PageState GetPageState(PageId id);

  /// Overwrites a cached page's image and dirty state WITHOUT logging —
  /// transaction rollback restoring a byte-exact before-image. Inserts the
  /// entry if absent.
  void RestorePage(PageId id, const Page& image, const PageState& state);

  /// Flushes one page if resident and dirty (log fence first). No-op
  /// otherwise.
  Status FlushPage(PageId id);

  /// Ids of all dirty resident pages, sorted (deterministic checkpoint
  /// flush order).
  std::vector<PageId> CollectDirtyPageIds();

  /// Flushes every dirty page to the data disk (checkpoint / clean
  /// shutdown). The log fence applies per page.
  Status FlushAllDirty();

  /// Drops the ENTIRE cache — including dirty pages — without writing
  /// anything back: the crash. Outstanding pins must have been released.
  void DropCacheNoFlush();

  /// Allocates a fresh page on the disk (not yet cached).
  PageId AllocatePage() { return disk_->AllocatePage(); }

  /// Drops every unpinned cached page — the cold-cache reset used before
  /// each benchmark run (DBCC DROPCLEANBUFFERS in SQL Server terms).
  void ClearCache();

  /// Bounded read retry budget (total attempts, >= 1). Default 3 mirrors
  /// the host engine's read-retry behaviour; set 1 to surface raw faults.
  void set_max_read_attempts(int attempts) {
    max_read_attempts_ = attempts < 1 ? 1 : attempts;
  }
  int max_read_attempts() const { return max_read_attempts_; }

  /// One consistent view of the pool's counters. Replaces the old
  /// hits()/misses()/pinned_pages() getter spread: callers take one
  /// snapshot and difference two snapshots for per-query attribution.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Currently pinned entries (a level, not a monotone counter).
    int64_t pinned_pages = 0;
    /// Currently dirty entries (write-back mode; a level).
    int64_t dirty_pages = 0;
    /// Dirty pages written to the data disk (eviction + flush fences).
    int64_t dirty_flushes = 0;
  };
  Stats Snapshot() const {
    Stats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    s.evictions = evictions_.load(std::memory_order_relaxed);
    s.pinned_pages = pinned_pages_.load(std::memory_order_relaxed);
    s.dirty_pages = dirty_pages_.load(std::memory_order_relaxed);
    s.dirty_flushes = dirty_flushes_.load(std::memory_order_relaxed);
    return s;
  }

  int shard_count() const { return static_cast<int>(shards_.size()); }
  SimulatedDisk* disk() { return disk_; }

 private:
  friend class PinnedPage;

  /// Auto-sharding knobs: a shard per this many capacity pages, capped.
  static constexpr int64_t kShardCapacityFloor = 256;
  static constexpr int kMaxShards = 16;

  struct Entry {
    /// Copy-on-write: writers install a fresh image; readers holding pins
    /// share ownership of the image they fetched, so replacement never
    /// tears a view.
    std::shared_ptr<const Page> page;
    std::list<PageId>::iterator lru_it;
    int pins = 0;
    bool dirty = false;
    Lsn rec_lsn = 0;
    Lsn last_lsn = 0;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<PageId, Entry> cache;
    std::list<PageId> lru;  // front = most recent
  };

  Shard& ShardFor(PageId id) {
    return *shards_[static_cast<size_t>(id) % shards_.size()];
  }

  void Unpin(PageId id);
  /// Evicts least-recently-used unpinned entries of `shard` until at most
  /// `target` remain (or only pinned entries are left). Dirty victims are
  /// flushed (log fence first); a victim whose flush fails is skipped and
  /// stays resident. Caller holds the shard mutex.
  void EvictDownTo(Shard* shard, int64_t target);
  /// Flushes one dirty entry to the data disk after forcing the log to its
  /// last_lsn. Caller holds the shard mutex.
  Status FlushEntryLocked(PageId id, Entry* entry);
  /// Reads `id` from disk with bounded retry (no locks held).
  Status ReadWithRetry(PageId id, Page* image);

  SimulatedDisk* disk_;
  int64_t shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;
  bool write_back_ = false;
  WalPageHook wal_hook_;
  VersionSink* version_sink_ = nullptr;
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> pinned_pages_{0};
  std::atomic<int64_t> dirty_pages_{0};
  std::atomic<int64_t> dirty_flushes_{0};
  int max_read_attempts_ = 3;
  /// Global registry mirrors (resolved once; bumped beside the atomics so
  /// engine-wide dashboards see all pools without polling each one).
  obs::Counter* reg_hits_;
  obs::Counter* reg_misses_;
  obs::Counter* reg_evictions_;
};

}  // namespace sqlarray::storage
