#include "storage/buffer_pool.h"

#include <algorithm>
#include <string>

namespace sqlarray::storage {

BufferPool::BufferPool(SimulatedDisk* disk, int64_t capacity_pages,
                       int shards)
    : disk_(disk) {
  if (capacity_pages < 1) capacity_pages = 1;
  int n = shards;
  if (n <= 0) {
    n = static_cast<int>(capacity_pages / kShardCapacityFloor);
    if (n > kMaxShards) n = kMaxShards;
    if (n < 1) n = 1;
  }
  if (static_cast<int64_t>(n) > capacity_pages) {
    n = static_cast<int>(capacity_pages);
  }
  shard_capacity_ = capacity_pages / n;
  shards_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg_hits_ = reg.GetCounter("storage.buffer_pool.hits");
  reg_misses_ = reg.GetCounter("storage.buffer_pool.misses");
  reg_evictions_ = reg.GetCounter("storage.buffer_pool.evictions");
}

void PinnedPage::Release() {
  if (pool_ != nullptr && id_ != kNullPage) {
    pool_->Unpin(id_);
  }
  pool_ = nullptr;
  id_ = kNullPage;
  owner_.reset();
}

void BufferPool::Unpin(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cache.find(id);
  assert(it != shard.cache.end() && "unpin of a page not in the cache");
  if (it == shard.cache.end()) return;
  assert(it->second.pins > 0 && "unpin underflow");
  if (it->second.pins > 0 && --it->second.pins == 0) {
    pinned_pages_.fetch_sub(1, std::memory_order_relaxed);
    // A pinned entry may have kept the shard over capacity; settle now.
    EvictDownTo(&shard, shard_capacity_);
  }
}

Status BufferPool::FlushEntryLocked(PageId id, Entry* entry) {
  if (!entry->dirty) return Status::OK();
  // WAL-before-data: the redo record covering this image must be durable
  // before the image reaches the data disk (otherwise a crash could leave a
  // page the log cannot explain).
  if (wal_hook_.flush_log_to) {
    SQLARRAY_RETURN_IF_ERROR(wal_hook_.flush_log_to(entry->last_lsn));
  }
  SQLARRAY_RETURN_IF_ERROR(disk_->WritePage(id, *entry->page));
  entry->dirty = false;
  entry->rec_lsn = 0;
  entry->last_lsn = 0;
  dirty_pages_.fetch_sub(1, std::memory_order_relaxed);
  dirty_flushes_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void BufferPool::EvictDownTo(Shard* shard, int64_t target) {
  // Walk from the LRU end, skipping pinned entries. Dirty victims are
  // flushed first (log fence inside FlushEntryLocked); if the flush fails
  // the entry is skipped and surfaces later via FlushAllDirty/checkpoint.
  auto it = shard->lru.end();
  while (static_cast<int64_t>(shard->cache.size()) > target &&
         it != shard->lru.begin()) {
    --it;
    auto centry = shard->cache.find(*it);
    if (centry != shard->cache.end() && centry->second.pins > 0) continue;
    if (centry != shard->cache.end()) {
      if (centry->second.dirty &&
          !FlushEntryLocked(centry->first, &centry->second).ok()) {
        continue;
      }
      shard->cache.erase(centry);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      reg_evictions_->Add(1);
    }
    it = shard->lru.erase(it);  // returns the element after; loop steps back
  }
}

Status BufferPool::ReadWithRetry(PageId id, Page* image) {
  Status st = disk_->ReadPage(id, image);
  int attempt = 1;
  while (!st.ok() && st.code() != StatusCode::kInvalidArgument &&
         attempt < max_read_attempts_) {
    ++attempt;
    disk_->NoteReadRetry(attempt);
    st = disk_->ReadPage(id, image);
    if (st.ok()) disk_->NoteFaultHealed();
  }
  if (!st.ok()) {
    if (st.code() == StatusCode::kInvalidArgument) return st;
    // Retry budget exhausted: escalate to kCorruption with the page id.
    return Status::Corruption("page " + std::to_string(id) +
                              " unreadable after " + std::to_string(attempt) +
                              " attempt(s): " + st.message());
  }
  return Status::OK();
}

Result<PinnedPage> BufferPool::GetPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cache.find(id);
  if (it != shard.cache.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    reg_hits_->Add(1);
    shard.lru.erase(it->second.lru_it);
    shard.lru.push_front(id);
    it->second.lru_it = shard.lru.begin();
    if (it->second.pins++ == 0) {
      pinned_pages_.fetch_add(1, std::memory_order_relaxed);
    }
    return PinnedPage(this, id, it->second.page);
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  reg_misses_->Add(1);
  // Read into a local image first: a failed read must leave no cache entry,
  // and retries must not expose a half-written one. The shard lock is held
  // across the read so concurrent misses on one page fault it in exactly
  // once (misses on other shards proceed in parallel).
  auto image = std::make_shared<Page>();
  SQLARRAY_RETURN_IF_ERROR(ReadWithRetry(id, image.get()));

  // Make room for the incoming entry (which is born pinned).
  EvictDownTo(&shard, shard_capacity_ - 1);
  shard.lru.push_front(id);
  Entry entry;
  entry.page = image;
  entry.lru_it = shard.lru.begin();
  entry.pins = 1;
  shard.cache.emplace(id, std::move(entry));
  pinned_pages_.fetch_add(1, std::memory_order_relaxed);
  return PinnedPage(this, id, std::move(image));
}

Status BufferPool::WritePage(PageId id, const Page& page) {
  if (!write_back_) {
    {
      Shard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.cache.find(id);
      if (it != shard.cache.end()) {
        it->second.page = std::make_shared<Page>(page);
      }
    }
    return disk_->WritePage(id, page);
  }

  // Write-back: log first (outside the shard lock — the hook may re-enter
  // the pool to capture the page's before-image), then cache dirty. The
  // image reaches the data disk only at eviction or an explicit flush.
  Lsn lsn = 0;
  if (wal_hook_.log_page_write) {
    SQLARRAY_ASSIGN_OR_RETURN(lsn, wal_hook_.log_page_write(id, page));
  }
  auto image = std::make_shared<Page>(page);
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cache.find(id);
  if (it == shard.cache.end()) {
    if (version_sink_ != nullptr) {
      // The superseded content may have been evicted to disk but can still
      // be needed by an active snapshot: recover it before it is shadowed.
      // A freshly allocated page reads back zeroed — a harmless chain entry
      // no snapshot-consistent tree walk can ever reach.
      std::shared_ptr<const Page> old_image;
      auto prior = std::make_shared<Page>();
      if (ReadWithRetry(id, prior.get()).ok()) old_image = std::move(prior);
      version_sink_->OnPageWrite(id, std::move(old_image), lsn);
    }
    EvictDownTo(&shard, shard_capacity_ - 1);
    shard.lru.push_front(id);
    Entry entry;
    entry.page = std::move(image);
    entry.lru_it = shard.lru.begin();
    entry.dirty = true;
    entry.rec_lsn = lsn;
    entry.last_lsn = lsn;
    shard.cache.emplace(id, std::move(entry));
    dirty_pages_.fetch_add(1, std::memory_order_relaxed);
  } else {
    if (version_sink_ != nullptr) {
      version_sink_->OnPageWrite(id, it->second.page, lsn);
    }
    it->second.page = std::move(image);
    if (!it->second.dirty) {
      it->second.dirty = true;
      it->second.rec_lsn = lsn;
      dirty_pages_.fetch_add(1, std::memory_order_relaxed);
    }
    it->second.last_lsn = lsn;
    shard.lru.erase(it->second.lru_it);
    shard.lru.push_front(id);
    it->second.lru_it = shard.lru.begin();
  }
  return Status::OK();
}

BufferPool::PageState BufferPool::GetPageState(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  PageState state;
  auto it = shard.cache.find(id);
  if (it == shard.cache.end()) return state;
  state.present = true;
  state.dirty = it->second.dirty;
  state.rec_lsn = it->second.rec_lsn;
  state.last_lsn = it->second.last_lsn;
  return state;
}

void BufferPool::RestorePage(PageId id, const Page& image,
                             const PageState& state) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cache.find(id);
  if (it == shard.cache.end()) {
    shard.lru.push_front(id);
    Entry entry;
    entry.page = std::make_shared<Page>(image);
    entry.lru_it = shard.lru.begin();
    shard.cache.emplace(id, std::move(entry));
    it = shard.cache.find(id);
  } else {
    // Rollback restore: no version-sink call. The chain (if any) already
    // holds this exact pre-transaction image, and the page's version clock
    // never went backwards for readers — they only ever saw committed LSNs.
    it->second.page = std::make_shared<Page>(image);
  }
  if (it->second.dirty != state.dirty) {
    dirty_pages_.fetch_add(state.dirty ? 1 : -1, std::memory_order_relaxed);
  }
  it->second.dirty = state.dirty;
  it->second.rec_lsn = state.rec_lsn;
  it->second.last_lsn = state.last_lsn;
}

Status BufferPool::FlushPage(PageId id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.cache.find(id);
  if (it == shard.cache.end()) return Status::OK();
  return FlushEntryLocked(id, &it->second);
}

std::vector<PageId> BufferPool::CollectDirtyPageIds() {
  std::vector<PageId> ids;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, entry] : shard->cache) {
      if (entry.dirty) ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

Status BufferPool::FlushAllDirty() {
  for (PageId id : CollectDirtyPageIds()) {
    SQLARRAY_RETURN_IF_ERROR(FlushPage(id));
  }
  return Status::OK();
}

void BufferPool::DropCacheNoFlush() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, entry] : shard->cache) {
      (void)id;
      if (entry.dirty) dirty_pages_.fetch_sub(1, std::memory_order_relaxed);
      if (entry.pins > 0) {
        pinned_pages_.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    shard->cache.clear();
    shard->lru.clear();
  }
}

void BufferPool::ClearCache() {
  // Pinned entries must survive (guards hold pointers into them); dirty
  // entries hold the only copy of logged-but-unflushed images, so the
  // cold-cache reset leaves them resident too.
  for (const std::unique_ptr<Shard>& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      auto centry = shard->cache.find(*it);
      if (centry != shard->cache.end() && centry->second.pins == 0 &&
          !centry->second.dirty) {
        shard->cache.erase(centry);
        it = shard->lru.erase(it);
      } else {
        ++it;
      }
    }
  }
}

}  // namespace sqlarray::storage
