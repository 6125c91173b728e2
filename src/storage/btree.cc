#include "storage/btree.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bytes.h"

namespace sqlarray::storage {

namespace {

uint32_t PageCount(const Page& p) { return DecodeLE<uint32_t>(p.data() + 4); }
void SetPageCount(Page* p, uint32_t n) { EncodeLE<uint32_t>(p->data() + 4, n); }
PageId LeafNext(const Page& p) { return DecodeLE<uint32_t>(p.data() + 8); }
void SetLeafNext(Page* p, PageId id) { EncodeLE<uint32_t>(p->data() + 8, id); }

void InitLeaf(Page* p) {
  p->Clear();
  p->data()[0] = static_cast<uint8_t>(PageType::kBTreeLeaf);
}

void InitInternal(Page* p) {
  p->Clear();
  p->data()[0] = static_cast<uint8_t>(PageType::kBTreeInternal);
}

bool IsLeaf(const Page& p) {
  return p.data()[0] == static_cast<uint8_t>(PageType::kBTreeLeaf);
}

int64_t LeafKeyAt(const Page& p, int64_t row_size, uint32_t i) {
  return DecodeLE<int64_t>(p.data() + kBTreePageHeader + i * row_size);
}

/// Internal entry accessors: (first_key, child) pairs.
int64_t InternalKeyAt(const Page& p, uint32_t i) {
  return DecodeLE<int64_t>(p.data() + kBTreePageHeader + i * 12);
}
PageId InternalChildAt(const Page& p, uint32_t i) {
  return DecodeLE<uint32_t>(p.data() + kBTreePageHeader + i * 12 + 8);
}
void SetInternalEntry(Page* p, uint32_t i, int64_t key, PageId child) {
  EncodeLE<int64_t>(p->data() + kBTreePageHeader + i * 12, key);
  EncodeLE<uint32_t>(p->data() + kBTreePageHeader + i * 12 + 8, child);
}

/// Index of the child covering `key`: the last entry whose first_key <= key
/// (entry 0 acts as -infinity).
uint32_t ChildIndexFor(const Page& p, int64_t key) {
  uint32_t n = PageCount(p);
  uint32_t lo = 0, hi = n;  // find last i with key_i <= key
  while (hi - lo > 1) {
    uint32_t mid = (lo + hi) / 2;
    if (InternalKeyAt(p, mid) <= key) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Result<BTree> BTree::Create(BufferPool* pool, int64_t row_size) {
  if (row_size < 8) {
    return Status::InvalidArgument("row must embed at least the 8-byte key");
  }
  BTree t(pool, row_size);
  // Leaf capacity models SQL Server's page economics: a 96-byte page
  // header plus ~9 bytes of record header + slot entry per row. Rows are
  // physically packed after our own 16-byte header; the remaining space
  // models those overheads so page counts (and therefore scan I/O) match
  // the real engine's.
  t.leaf_capacity_ = (kPageSize - kSqlPageHeaderBytes) /
                     (row_size + kSqlRowOverheadBytes);
  t.internal_capacity_ = (kPageSize - kSqlPageHeaderBytes) / (12 + 9);
  if (t.leaf_capacity_ < 2) {
    return Status::InvalidArgument("row size too large for a leaf page");
  }
  t.root_ = pool->AllocatePage();
  t.first_leaf_ = t.root_;
  Page leaf;
  InitLeaf(&leaf);
  SQLARRAY_RETURN_IF_ERROR(pool->WritePage(t.root_, leaf));
  t.leaf_pages_ = 1;
  t.leaf_ids_.push_back(t.root_);
  return t;
}

Result<BTree> BTree::Attach(BufferPool* pool, int64_t row_size, PageId root) {
  if (row_size < 8) {
    return Status::InvalidArgument("row must embed at least the 8-byte key");
  }
  BTree t(pool, row_size);
  t.leaf_capacity_ = (kPageSize - kSqlPageHeaderBytes) /
                     (row_size + kSqlRowOverheadBytes);
  t.internal_capacity_ = (kPageSize - kSqlPageHeaderBytes) / (12 + 9);
  if (t.leaf_capacity_ < 2) {
    return Status::InvalidArgument("row size too large for a leaf page");
  }
  t.root_ = root;

  // Leftmost descent: height and the first leaf.
  t.height_ = 1;
  t.internal_pages_ = 0;
  PageId node = root;
  std::vector<PageId> level_heads;
  for (;;) {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, pool->GetPage(node));
    if (IsLeaf(*page)) break;
    if (page->data()[0] != static_cast<uint8_t>(PageType::kBTreeInternal)) {
      return Status::Corruption("attach: page " + std::to_string(node) +
                                " is neither leaf nor internal");
    }
    if (PageCount(*page) == 0) {
      return Status::Corruption("attach: empty internal page " +
                                std::to_string(node));
    }
    level_heads.push_back(node);
    node = InternalChildAt(*page, 0);
    ++t.height_;
    if (t.height_ > 64) {
      return Status::Corruption("attach: tree height exceeds sanity bound");
    }
  }
  t.first_leaf_ = node;

  // Count internal pages level by level: walk each internal level along
  // parent fan-out (children of level k's nodes are level k+1's nodes).
  std::vector<PageId> level = level_heads.empty()
                                  ? std::vector<PageId>{}
                                  : std::vector<PageId>{root};
  while (!level.empty()) {
    t.internal_pages_ += static_cast<int64_t>(level.size());
    std::vector<PageId> next;
    bool children_are_leaves = false;
    for (PageId id : level) {
      SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, pool->GetPage(id));
      if (IsLeaf(*page)) {
        return Status::Corruption("attach: leaf on an internal level");
      }
      uint32_t n = PageCount(*page);
      for (uint32_t i = 0; i < n; ++i) {
        PageId child = InternalChildAt(*page, i);
        if (next.empty() && i == 0) {
          SQLARRAY_ASSIGN_OR_RETURN(PinnedPage cp, pool->GetPage(child));
          children_are_leaves = IsLeaf(*cp);
        }
        next.push_back(child);
      }
    }
    if (children_are_leaves) break;
    level = std::move(next);
  }

  // Walk the leaf chain: allocation map, leaf count, row count.
  t.leaf_pages_ = 0;
  t.row_count_ = 0;
  for (PageId leaf = t.first_leaf_; leaf != kNullPage;) {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, pool->GetPage(leaf));
    if (!IsLeaf(*page)) {
      return Status::Corruption("attach: non-leaf page " +
                                std::to_string(leaf) + " in the leaf chain");
    }
    t.leaf_ids_.push_back(leaf);
    ++t.leaf_pages_;
    t.row_count_ += PageCount(*page);
    if (t.leaf_pages_ > static_cast<int64_t>(1) << 32) {
      return Status::Corruption("attach: leaf chain does not terminate");
    }
    leaf = LeafNext(*page);
  }
  return t;
}

Result<BTree::SplitResult> BTree::InsertRecurse(PageId node, int level,
                                                std::span<const uint8_t> row,
                                                int64_t key) {
  SQLARRAY_ASSIGN_OR_RETURN(PinnedPage loaded, GetP(node));
  Page page = *loaded;

  if (level == 0) {
    if (!IsLeaf(page)) return Status::Corruption("expected a leaf page");
    uint32_t n = PageCount(page);
    // Binary search for the insertion slot.
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      uint32_t mid = (lo + hi) / 2;
      int64_t k = LeafKeyAt(page, row_size_, mid);
      if (k < key) {
        lo = mid + 1;
      } else if (k == key) {
        return Status::AlreadyExists("duplicate clustered key " +
                                     std::to_string(key));
      } else {
        hi = mid;
      }
    }
    uint32_t slot = lo;

    if (n < leaf_capacity_) {
      uint8_t* base = page.data() + kBTreePageHeader;
      std::memmove(base + (slot + 1) * row_size_, base + slot * row_size_,
                   (n - slot) * row_size_);
      std::memcpy(base + slot * row_size_, row.data(), row_size_);
      SetPageCount(&page, n + 1);
      SQLARRAY_RETURN_IF_ERROR(WriteP(node, page));
      return SplitResult{};
    }

    // Split. Appending workloads (slot == n) get an empty right page that
    // the new row starts, so ascending bulk loads fill pages densely.
    Page right;
    InitLeaf(&right);
    PageId right_id = AllocP();
    ++leaf_pages_;
    // Maintain the allocation map: the new leaf follows `node` in the chain.
    auto it = std::find(leaf_ids_.begin(), leaf_ids_.end(), node);
    leaf_ids_.insert(it == leaf_ids_.end() ? leaf_ids_.end() : it + 1,
                     right_id);
    uint32_t keep = (slot == n) ? n : n / 2;

    uint8_t* lbase = page.data() + kBTreePageHeader;
    uint8_t* rbase = right.data() + kBTreePageHeader;
    uint32_t moved = n - keep;
    std::memcpy(rbase, lbase + keep * row_size_, moved * row_size_);
    SetPageCount(&page, keep);
    SetPageCount(&right, moved);
    SetLeafNext(&right, LeafNext(page));
    SetLeafNext(&page, right_id);

    // Insert the new row into the proper half. On the append path keep == n,
    // so the row must start the fresh right page.
    bool into_left = keep < n && slot <= keep;
    Page* target = into_left ? &page : &right;
    uint32_t tslot = into_left ? slot : slot - keep;
    uint32_t tn = PageCount(*target);
    uint8_t* tbase = target->data() + kBTreePageHeader;
    std::memmove(tbase + (tslot + 1) * row_size_, tbase + tslot * row_size_,
                 (tn - tslot) * row_size_);
    std::memcpy(tbase + tslot * row_size_, row.data(), row_size_);
    SetPageCount(target, tn + 1);

    SQLARRAY_RETURN_IF_ERROR(WriteP(node, page));
    SQLARRAY_RETURN_IF_ERROR(WriteP(right_id, right));
    return SplitResult{true, LeafKeyAt(right, row_size_, 0), right_id};
  }

  // Internal node.
  if (IsLeaf(page)) return Status::Corruption("expected an internal page");
  uint32_t child_idx = ChildIndexFor(page, key);
  PageId child = InternalChildAt(page, child_idx);
  SQLARRAY_ASSIGN_OR_RETURN(SplitResult child_split,
                            InsertRecurse(child, level - 1, row, key));
  if (!child_split.split) return SplitResult{};

  // Re-fetch: the child insert may have evicted our copy's source, and the
  // page content itself is unchanged by descendants, so the copy is valid;
  // insert the separator for the new right sibling.
  uint32_t n = PageCount(page);
  uint32_t slot = child_idx + 1;
  if (n < internal_capacity_) {
    uint8_t* base = page.data() + kBTreePageHeader;
    std::memmove(base + (slot + 1) * 12, base + slot * 12, (n - slot) * 12);
    SetInternalEntry(&page, slot, child_split.new_first_key,
                     child_split.new_page);
    SetPageCount(&page, n + 1);
    SQLARRAY_RETURN_IF_ERROR(WriteP(node, page));
    return SplitResult{};
  }

  // Split the internal node (append-friendly like the leaf split).
  Page right;
  InitInternal(&right);
  PageId right_id = AllocP();
  ++internal_pages_;
  uint32_t keep = (slot == n) ? n : n / 2;
  uint32_t moved = n - keep;
  std::memcpy(right.data() + kBTreePageHeader,
              page.data() + kBTreePageHeader + keep * 12, moved * 12);
  SetPageCount(&page, keep);
  SetPageCount(&right, moved);

  bool into_left = keep < n && slot <= keep;
  Page* target = into_left ? &page : &right;
  uint32_t tslot = into_left ? slot : slot - keep;
  uint32_t tn = PageCount(*target);
  uint8_t* tbase = target->data() + kBTreePageHeader;
  std::memmove(tbase + (tslot + 1) * 12, tbase + tslot * 12,
               (tn - tslot) * 12);
  SetInternalEntry(target, tslot, child_split.new_first_key,
                   child_split.new_page);
  SetPageCount(target, tn + 1);

  SQLARRAY_RETURN_IF_ERROR(WriteP(node, page));
  SQLARRAY_RETURN_IF_ERROR(WriteP(right_id, right));
  return SplitResult{true, InternalKeyAt(right, 0), right_id};
}

Status BTree::Insert(std::span<const uint8_t> row) {
  if (static_cast<int64_t>(row.size()) != row_size_) {
    return Status::InvalidArgument("row size does not match the tree");
  }
  int64_t key = DecodeLE<int64_t>(row.data());
  SQLARRAY_ASSIGN_OR_RETURN(SplitResult split,
                            InsertRecurse(root_, height_ - 1, row, key));
  if (split.split) {
    // Grow a new root.
    Page new_root;
    InitInternal(&new_root);
    PageId new_root_id = AllocP();
    ++internal_pages_;
    SetInternalEntry(&new_root, 0, std::numeric_limits<int64_t>::min(),
                     root_);
    SetInternalEntry(&new_root, 1, split.new_first_key, split.new_page);
    SetPageCount(&new_root, 2);
    SQLARRAY_RETURN_IF_ERROR(WriteP(new_root_id, new_root));
    root_ = new_root_id;
    ++height_;
  }
  ++row_count_;
  return Status::OK();
}

Result<bool> BTree::Lookup(int64_t key, std::vector<uint8_t>* row_out) {
  PageId node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, GetP(node));
    node = InternalChildAt(*page, ChildIndexFor(*page, key));
  }
  SQLARRAY_ASSIGN_OR_RETURN(PinnedPage leaf, GetP(node));
  uint32_t n = PageCount(*leaf);
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    int64_t k = LeafKeyAt(*leaf, row_size_, mid);
    if (k < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < n && LeafKeyAt(*leaf, row_size_, lo) == key) {
    const uint8_t* src = leaf->data() + kBTreePageHeader + lo * row_size_;
    row_out->assign(src, src + row_size_);
    return true;
  }
  return false;
}

Result<BTree::BulkLoader> BTree::StartBulkLoad() {
  if (row_count_ != 0) {
    return Status::InvalidArgument("bulk load requires an empty tree");
  }
  return BulkLoader(this);
}

BTree::BulkLoader::BulkLoader(BTree* tree) : tree_(tree) {
  InitLeaf(&leaf_);
  // Reuse the tree's pre-allocated (empty) root page as the first leaf.
  leaf_id_ = tree_->root_;
}

Status BTree::BulkLoader::FlushLeaf() {
  if (leaf_count_ == 0) return Status::OK();
  SetPageCount(&leaf_, leaf_count_);
  leaf_index_.emplace_back(LeafKeyAt(leaf_, tree_->row_size_, 0), leaf_id_);
  // Link to the next leaf lazily: allocate it now so we can point at it.
  PageId next = tree_->pool_->AllocatePage();
  SetLeafNext(&leaf_, next);
  SQLARRAY_RETURN_IF_ERROR(tree_->pool_->WritePage(leaf_id_, leaf_));
  InitLeaf(&leaf_);
  leaf_id_ = next;
  leaf_count_ = 0;
  return Status::OK();
}

Status BTree::BulkLoader::Add(std::span<const uint8_t> row) {
  if (finished_) return Status::InvalidArgument("bulk load already finished");
  if (static_cast<int64_t>(row.size()) != tree_->row_size_) {
    return Status::InvalidArgument("row size does not match the tree");
  }
  int64_t key = DecodeLE<int64_t>(row.data());
  if (any_ && key <= last_key_) {
    return Status::InvalidArgument(
        "bulk load rows must arrive in strictly ascending key order");
  }
  last_key_ = key;
  any_ = true;
  if (leaf_count_ == tree_->leaf_capacity_) {
    SQLARRAY_RETURN_IF_ERROR(FlushLeaf());
  }
  std::memcpy(leaf_.data() + kBTreePageHeader + leaf_count_ * tree_->row_size_,
              row.data(), tree_->row_size_);
  ++leaf_count_;
  ++tree_->row_count_;
  return Status::OK();
}

Status BTree::BulkLoader::Finish() {
  if (finished_) return Status::OK();
  finished_ = true;

  if (leaf_count_ > 0 || leaf_index_.empty()) {
    // Write the tail leaf with no successor.
    SetPageCount(&leaf_, leaf_count_);
    SetLeafNext(&leaf_, kNullPage);
    leaf_index_.emplace_back(
        leaf_count_ > 0 ? LeafKeyAt(leaf_, tree_->row_size_, 0)
                        : std::numeric_limits<int64_t>::min(),
        leaf_id_);
    SQLARRAY_RETURN_IF_ERROR(tree_->pool_->WritePage(leaf_id_, leaf_));
  } else {
    // The pre-allocated tail page stays an empty leaf terminating the
    // chain; rewrite the previous leaf's next pointer to null instead of
    // leaving a dangling empty page? Simpler: write it as an empty leaf.
    Page empty;
    InitLeaf(&empty);
    SQLARRAY_RETURN_IF_ERROR(tree_->pool_->WritePage(leaf_id_, empty));
  }
  tree_->leaf_pages_ = static_cast<int64_t>(leaf_index_.size());
  tree_->first_leaf_ = leaf_index_.front().second;
  tree_->leaf_ids_.clear();
  for (const auto& [key, page] : leaf_index_) {
    (void)key;
    tree_->leaf_ids_.push_back(page);
  }

  // Build internal levels bottom-up until one node remains.
  std::vector<std::pair<int64_t, PageId>> level = std::move(leaf_index_);
  tree_->height_ = 1;
  while (level.size() > 1) {
    std::vector<std::pair<int64_t, PageId>> parents;
    for (size_t base = 0; base < level.size();
         base += tree_->internal_capacity_) {
      size_t count = std::min<size_t>(tree_->internal_capacity_,
                                      level.size() - base);
      Page node;
      InitInternal(&node);
      for (size_t k = 0; k < count; ++k) {
        // Entry 0 of every internal node acts as -infinity.
        int64_t sep = (base + k == 0)
                          ? std::numeric_limits<int64_t>::min()
                          : level[base + k].first;
        SetInternalEntry(&node, static_cast<uint32_t>(k), sep,
                         level[base + k].second);
      }
      SetPageCount(&node, static_cast<uint32_t>(count));
      PageId id = tree_->pool_->AllocatePage();
      ++tree_->internal_pages_;
      SQLARRAY_RETURN_IF_ERROR(tree_->pool_->WritePage(id, node));
      parents.emplace_back(level[base].first, id);
    }
    level = std::move(parents);
    ++tree_->height_;
  }
  tree_->root_ = level.front().second;
  return Status::OK();
}

Result<bool> BTree::Delete(int64_t key) {
  PageId node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, GetP(node));
    node = InternalChildAt(*page, ChildIndexFor(*page, key));
  }
  SQLARRAY_ASSIGN_OR_RETURN(PinnedPage loaded, GetP(node));
  Page leaf = *loaded;
  uint32_t n = PageCount(leaf);
  uint32_t lo = 0, hi = n;
  while (lo < hi) {
    uint32_t mid = (lo + hi) / 2;
    if (LeafKeyAt(leaf, row_size_, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo >= n || LeafKeyAt(leaf, row_size_, lo) != key) return false;

  uint8_t* base = leaf.data() + kBTreePageHeader;
  std::memmove(base + lo * row_size_, base + (lo + 1) * row_size_,
               (n - lo - 1) * row_size_);
  SetPageCount(&leaf, n - 1);
  SQLARRAY_RETURN_IF_ERROR(WriteP(node, leaf));
  --row_count_;
  return true;
}

Status BTree::Cursor::LoadLeaf(PageId id) {
  while (id != kNullPage) {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page,
                              fetch_ ? fetch_(id) : pool_->GetPage(id));
    page_ = *page;
    count_ = PageCount(page_);
    next_ = LeafNext(page_);
    pos_ = 0;
    if (count_ > 0) {
      valid_ = true;
      return Status::OK();
    }
    id = next_;  // skip empty leaves
  }
  valid_ = false;
  return Status::OK();
}

std::span<const uint8_t> BTree::Cursor::row() const {
  return std::span<const uint8_t>(
      page_.data() + kBTreePageHeader + pos_ * row_size_,
      static_cast<size_t>(row_size_));
}

Status BTree::Cursor::Next() {
  if (!valid_) return Status::OK();
  if (++pos_ < count_) return Status::OK();
  return LoadLeaf(next_);
}

Status BTree::ChunkCursor::LoadNextPage() {
  while (page_idx_ < pages_.size()) {
    const PageId id = pages_[page_idx_++];
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page,
                              fetch_ ? fetch_(id) : pool_->GetPage(id));
    page_ = *page;
    // The page list comes from the allocation map or the internal levels,
    // never from a leaf's own chain pointer: check what it names.
    if (!IsLeaf(page_)) {
      return Status::Corruption("scan: page " + std::to_string(id) +
                                " in the leaf list is not a leaf");
    }
    count_ = PageCount(page_);
    pos_ = 0;
    if (count_ > 0) {
      valid_ = true;
      return Status::OK();
    }
  }
  valid_ = false;
  return Status::OK();
}

Status BTree::ChunkCursor::Next() {
  if (!valid_) return Status::OK();
  if (++pos_ < count_) return Status::OK();
  return LoadNextPage();
}

Result<int32_t> BTree::ChunkCursor::CopyRows(int32_t max_rows, uint8_t* out) {
  int32_t copied = 0;
  while (copied < max_rows && valid_) {
    uint32_t run = count_ - pos_;
    if (run > static_cast<uint32_t>(max_rows - copied)) {
      run = static_cast<uint32_t>(max_rows - copied);
    }
    std::memcpy(out + static_cast<size_t>(copied) * row_size_,
                page_.data() + kBTreePageHeader + pos_ * row_size_,
                static_cast<size_t>(run) * row_size_);
    copied += static_cast<int32_t>(run);
    pos_ += run;
    // Mirror Next(): consuming a page's last row loads the next page
    // immediately, so page I/O lands at the same points either way.
    if (pos_ >= count_) SQLARRAY_RETURN_IF_ERROR(LoadNextPage());
  }
  return copied;
}

Result<BTree::ChunkCursor> BTree::ScanChunk(BufferPool* pool,
                                            std::vector<PageId> pages) const {
  ChunkCursor c;
  c.pool_ = pool;
  c.row_size_ = row_size_;
  c.pages_ = std::move(pages);
  SQLARRAY_RETURN_IF_ERROR(c.LoadNextPage());
  return c;
}

Result<BTree::Cursor> BTree::ScanAll() const {
  Cursor c;
  c.pool_ = pool_;
  if (io_ != nullptr) c.fetch_ = io_->fetch;
  c.row_size_ = row_size_;
  SQLARRAY_RETURN_IF_ERROR(c.LoadLeaf(first_leaf_));
  return c;
}

Result<BTree::LeafMap> BTree::LeafMapVia(const PageFetcher& fetch,
                                         PageId root) {
  // Level by level from the root. Only the first page of a level is
  // fetched before the level is known to be internal, so the one leaf read
  // is the first leaf.
  LeafMap level;
  level.pages.push_back(root);
  level.low_keys.push_back(std::numeric_limits<int64_t>::min());
  for (int depth = 0; depth < 64; ++depth) {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, fetch(level.pages[0]));
    if (IsLeaf(*page)) return level;
    LeafMap next;
    for (size_t i = 0; i < level.pages.size(); ++i) {
      if (i > 0) {
        SQLARRAY_ASSIGN_OR_RETURN(page, fetch(level.pages[i]));
      }
      if (page->data()[0] != static_cast<uint8_t>(PageType::kBTreeInternal)) {
        return Status::Corruption(
            "leaf map: page " + std::to_string(level.pages[i]) +
            " on an internal level is not an internal page");
      }
      const uint32_t n = PageCount(*page);
      if (n == 0) {
        return Status::Corruption("leaf map: empty internal page " +
                                  std::to_string(level.pages[i]));
      }
      // Child c > 0 receives the keys >= its separator that reached this
      // node; child 0 inherits the node's own bound.
      const int64_t low = level.low_keys[i];
      for (uint32_t c = 0; c < n; ++c) {
        next.pages.push_back(InternalChildAt(*page, c));
        next.low_keys.push_back(c == 0 ? low
                                       : std::max(low, InternalKeyAt(*page, c)));
      }
    }
    level = std::move(next);
  }
  return Status::Corruption("leaf map: tree height exceeds sanity bound");
}

std::pair<size_t, size_t> BTree::LeafMap::Span(int64_t lo, int64_t hi) const {
  // A key lands on the last leaf whose low key is <= it.
  auto last_at_or_below = [&](int64_t key) {
    auto it = std::upper_bound(low_keys.begin(), low_keys.end(), key);
    return it == low_keys.begin()
               ? size_t{0}
               : static_cast<size_t>(it - low_keys.begin()) - 1;
  };
  if (pages.empty()) return {0, 0};
  return {last_at_or_below(lo), last_at_or_below(hi) + 1};
}

Result<std::pair<size_t, size_t>> BTree::SeekLeaves(int64_t lo,
                                                    int64_t hi) const {
  auto get_internal = [this](PageId node) -> Result<PinnedPage> {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage page, GetP(node));
    if (IsLeaf(*page)) {
      return Status::Corruption("seek: page " + std::to_string(node) +
                                " above the leaf level is a leaf");
    }
    return page;
  };
  PageId lo_node = root_;
  PageId hi_node = root_;
  for (int level = height_ - 1; level > 0; --level) {
    SQLARRAY_ASSIGN_OR_RETURN(PinnedPage lo_page, get_internal(lo_node));
    // Until the two paths part, one fetch routes both bounds.
    PinnedPage hi_page;
    if (hi_node != lo_node) {
      SQLARRAY_ASSIGN_OR_RETURN(hi_page, get_internal(hi_node));
    }
    const Page& hp = hi_node == lo_node ? *lo_page : *hi_page;
    hi_node = InternalChildAt(hp, ChildIndexFor(hp, hi));
    lo_node = InternalChildAt(*lo_page, ChildIndexFor(*lo_page, lo));
  }
  auto b = std::find(leaf_ids_.begin(), leaf_ids_.end(), lo_node);
  auto e = std::find(b, leaf_ids_.end(), hi_node);
  if (e == leaf_ids_.end()) {
    return Status::Corruption("seek: leaf " + std::to_string(hi_node) +
                              " is not in the allocation map");
  }
  return std::pair<size_t, size_t>(
      static_cast<size_t>(b - leaf_ids_.begin()),
      static_cast<size_t>(e - leaf_ids_.begin()) + 1);
}

Result<BTree::ChunkCursor> BTree::ScanChunkVia(PageFetcher fetch,
                                               std::vector<PageId> pages,
                                               int64_t row_size) {
  ChunkCursor c;
  c.fetch_ = std::move(fetch);
  c.row_size_ = row_size;
  c.pages_ = std::move(pages);
  SQLARRAY_RETURN_IF_ERROR(c.LoadNextPage());
  return c;
}

}  // namespace sqlarray::storage
