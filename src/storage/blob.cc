#include "storage/blob.h"

#include <algorithm>
#include <cstring>

#include "common/bytes.h"

namespace sqlarray::storage {

namespace {

Status WriteDataPage(BufferPool* pool, PageId id,
                     std::span<const uint8_t> payload) {
  Page page;
  page.data()[0] = static_cast<uint8_t>(PageType::kBlobData);
  EncodeLE<uint32_t>(page.data() + 4, static_cast<uint32_t>(payload.size()));
  std::memcpy(page.data() + 8, payload.data(), payload.size());
  return pool->WritePage(id, page);
}

Status WriteIndexPage(BufferPool* pool, PageId id, int level,
                      std::span<const PageId> children) {
  Page page;
  page.data()[0] = static_cast<uint8_t>(PageType::kBlobIndex);
  page.data()[1] = static_cast<uint8_t>(level);
  EncodeLE<uint32_t>(page.data() + 4, static_cast<uint32_t>(children.size()));
  for (size_t i = 0; i < children.size(); ++i) {
    EncodeLE<uint32_t>(page.data() + 8 + 4 * i, children[i]);
  }
  return pool->WritePage(id, page);
}

}  // namespace

PageId BlobStore::AllocOrReuse() {
  if (!free_.empty()) {
    PageId id = free_.back();
    free_.pop_back();
    obs::MetricsRegistry::Global()
        .GetCounter("storage.blob.pages_reused")
        ->Add(1);
    return id;
  }
  return pool_->AllocatePage();
}

Result<int64_t> BlobStore::Free(const BlobId& id) {
  SQLARRAY_ASSIGN_OR_RETURN(PinnedPage root, pool_->GetPage(id.root));
  if (root->data()[0] != static_cast<uint8_t>(PageType::kBlobIndex)) {
    return Status::Corruption("blob root is not an index page");
  }
  int level = root->data()[1];
  if (level != 1 && level != 2) {
    return Status::Corruption("blob index has invalid level");
  }
  std::vector<PageId> reclaimed;
  uint32_t root_count = DecodeLE<uint32_t>(root->data() + 4);
  for (uint32_t i = 0; i < root_count; ++i) {
    PageId child = DecodeLE<uint32_t>(root->data() + 8 + 4 * i);
    if (level == 1) {
      reclaimed.push_back(child);
      continue;
    }
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage l1, pool_->GetPage(child));
    if (l1->data()[0] != static_cast<uint8_t>(PageType::kBlobIndex)) {
      return Status::Corruption("blob level-1 page is not an index page");
    }
    uint32_t n = DecodeLE<uint32_t>(l1->data() + 4);
    for (uint32_t k = 0; k < n; ++k) {
      reclaimed.push_back(DecodeLE<uint32_t>(l1->data() + 8 + 4 * k));
    }
    reclaimed.push_back(child);
  }
  reclaimed.push_back(id.root);
  free_.insert(free_.end(), reclaimed.begin(), reclaimed.end());
  obs::MetricsRegistry::Global()
      .GetCounter("storage.blob.pages_freed")
      ->Add(static_cast<int64_t>(reclaimed.size()));
  return static_cast<int64_t>(reclaimed.size());
}

Result<BlobId> BlobStore::Write(std::span<const uint8_t> bytes) {
  const int64_t size = static_cast<int64_t>(bytes.size());
  const int64_t n_data =
      (size + kBlobDataCapacity - 1) / kBlobDataCapacity;

  if (n_data > kBlobIndexFanout * kBlobIndexFanout) {
    return Status::ResourceExhausted(
        "blob exceeds the two-level index capacity");
  }

  // Write data pages.
  std::vector<PageId> data_pages;
  data_pages.reserve(n_data);
  for (int64_t k = 0; k < n_data; ++k) {
    PageId id = AllocOrReuse();
    int64_t off = k * kBlobDataCapacity;
    int64_t len = std::min(kBlobDataCapacity, size - off);
    SQLARRAY_RETURN_IF_ERROR(
        WriteDataPage(pool_, id, bytes.subspan(off, len)));
    data_pages.push_back(id);
  }

  BlobId blob;
  blob.size = size;
  if (n_data <= kBlobIndexFanout) {
    blob.root = AllocOrReuse();
    SQLARRAY_RETURN_IF_ERROR(WriteIndexPage(pool_, blob.root, 1, data_pages));
  } else {
    // Two levels: group data pages into level-1 index pages, then a root.
    std::vector<PageId> level1;
    for (int64_t g = 0; g < n_data; g += kBlobIndexFanout) {
      int64_t len = std::min<int64_t>(kBlobIndexFanout, n_data - g);
      PageId id = AllocOrReuse();
      SQLARRAY_RETURN_IF_ERROR(WriteIndexPage(
          pool_, id, 1,
          std::span<const PageId>(data_pages.data() + g,
                                  static_cast<size_t>(len))));
      level1.push_back(id);
    }
    blob.root = AllocOrReuse();
    SQLARRAY_RETURN_IF_ERROR(WriteIndexPage(pool_, blob.root, 2, level1));
  }
  return blob;
}

Result<std::vector<uint8_t>> BlobStore::ReadAll(const BlobId& id) {
  SQLARRAY_ASSIGN_OR_RETURN(BlobStream stream, BlobStream::Open(pool_, id));
  std::vector<uint8_t> out(static_cast<size_t>(id.size));
  SQLARRAY_RETURN_IF_ERROR(stream.ReadAt(0, out));
  return out;
}

Result<BlobStream> BlobStream::Open(BufferPool* pool, const BlobId& id) {
  if (id.root == kNullPage) {
    // BlobStore::Write never returns this root: it is the placeholder a
    // transaction's shadow insert stores until commit writes the blob.
    return Status::Unimplemented(
        "blob inserted by an open transaction has no pages until COMMIT");
  }
  SQLARRAY_ASSIGN_OR_RETURN(PinnedPage root, pool->GetPage(id.root));
  if (root->data()[0] != static_cast<uint8_t>(PageType::kBlobIndex)) {
    return Status::Corruption("blob root is not an index page");
  }
  int level = root->data()[1];
  if (level != 1 && level != 2) {
    return Status::Corruption("blob index has invalid level");
  }
  BlobStream stream(pool, id, level);
  stream.root_cache_ = *root;
  stream.root_loaded_ = true;
  return stream;
}

Result<PageId> BlobStream::DataPageOf(int64_t k) {
  const uint8_t* root = root_cache_.data();
  uint32_t root_count = DecodeLE<uint32_t>(root + 4);
  if (level_ == 1) {
    if (k >= root_count) {
      return Status::Corruption("blob data page index out of range");
    }
    return DecodeLE<uint32_t>(root + 8 + 4 * k);
  }
  int64_t slot = k / kBlobIndexFanout;
  int64_t inner = k % kBlobIndexFanout;
  if (slot >= root_count) {
    return Status::Corruption("blob index slot out of range");
  }
  if (slot != index_cache_slot_) {
    PageId l1 = DecodeLE<uint32_t>(root + 8 + 4 * slot);
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, pool_->GetPage(l1));
    if (page->data()[0] != static_cast<uint8_t>(PageType::kBlobIndex)) {
      return Status::Corruption("blob level-1 page is not an index page");
    }
    index_cache_ = *page;
    index_cache_slot_ = slot;
  }
  const uint8_t* idx = index_cache_.data();
  uint32_t count = DecodeLE<uint32_t>(idx + 4);
  if (inner >= count) {
    return Status::Corruption("blob data page index out of range");
  }
  return DecodeLE<uint32_t>(idx + 8 + 4 * inner);
}

Status BlobStream::ReadAt(int64_t offset, std::span<uint8_t> out) {
  if (offset < 0 ||
      offset + static_cast<int64_t>(out.size()) > id_.size) {
    return Status::OutOfRange("blob read past end");
  }
  int64_t remaining = static_cast<int64_t>(out.size());
  int64_t pos = offset;
  uint8_t* dst = out.data();
  while (remaining > 0) {
    int64_t k = pos / kBlobDataCapacity;
    int64_t in_page = pos % kBlobDataCapacity;
    int64_t take = std::min(remaining, kBlobDataCapacity - in_page);
    SQLARRAY_ASSIGN_OR_RETURN(PageId pid, DataPageOf(k));
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, pool_->GetPage(pid));
    if (page->data()[0] != static_cast<uint8_t>(PageType::kBlobData)) {
      return Status::Corruption("blob data page has wrong type");
    }
    uint32_t len = DecodeLE<uint32_t>(page->data() + 4);
    if (in_page + take > len) {
      return Status::Corruption("blob data page shorter than expected");
    }
    std::memcpy(dst, page->data() + 8 + in_page, static_cast<size_t>(take));
    dst += take;
    pos += take;
    remaining -= take;
  }
  return Status::OK();
}

}  // namespace sqlarray::storage
