#include "storage/table.h"

namespace sqlarray::storage {

Result<std::unique_ptr<Table>> Table::Create(std::string name, Schema schema,
                                             BufferPool* pool,
                                             BlobStore* blobs) {
  SQLARRAY_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool, schema.row_size()));
  return std::unique_ptr<Table>(
      new Table(std::move(name), std::move(schema), std::move(tree), blobs));
}

Result<std::unique_ptr<Table>> Table::Attach(std::string name, Schema schema,
                                             PageId root, BufferPool* pool,
                                             BlobStore* blobs) {
  SQLARRAY_ASSIGN_OR_RETURN(BTree tree,
                            BTree::Attach(pool, schema.row_size(), root));
  return std::unique_ptr<Table>(
      new Table(std::move(name), std::move(schema), std::move(tree), blobs));
}

Result<bool> Table::Delete(int64_t key) {
  bool has_blobs = false;
  for (int i = 0; i < schema_.num_columns(); ++i) {
    if (schema_.column(i).type == ColumnType::kVarBinaryMax) has_blobs = true;
  }
  if (!has_blobs) return tree_.Delete(key);

  // Fetch the row first so its blob pages can be reclaimed.
  std::vector<uint8_t> encoded;
  SQLARRAY_ASSIGN_OR_RETURN(bool found, tree_.Lookup(key, &encoded));
  if (!found) return false;
  SQLARRAY_ASSIGN_OR_RETURN(bool deleted, tree_.Delete(key));
  if (!deleted) return false;
  for (int i = 0; i < schema_.num_columns(); ++i) {
    if (schema_.column(i).type != ColumnType::kVarBinaryMax) continue;
    SQLARRAY_ASSIGN_OR_RETURN(RowValue v,
                              schema_.DecodeColumn(encoded.data(), i));
    if (auto* id = std::get_if<BlobId>(&v)) {
      SQLARRAY_RETURN_IF_ERROR(blobs_->Free(*id).status());
    }
  }
  return true;
}

Status Table::Insert(Row row) {
  // Spill raw bytes destined for VARBINARY(MAX) columns out-of-page first.
  for (int i = 0; i < schema_.num_columns(); ++i) {
    if (schema_.column(i).type != ColumnType::kVarBinaryMax) continue;
    if (auto* bytes = std::get_if<std::vector<uint8_t>>(&row[i])) {
      SQLARRAY_ASSIGN_OR_RETURN(BlobId id, blobs_->Write(*bytes));
      row[i] = id;
    }
  }
  std::vector<uint8_t> encoded(static_cast<size_t>(schema_.row_size()));
  SQLARRAY_RETURN_IF_ERROR(schema_.EncodeRow(row, encoded.data()));
  return tree_.Insert(encoded);
}

Result<BTree::LeafMap> Table::ReadLeafMap(PageSource* snap) const {
  SQLARRAY_ASSIGN_OR_RETURN(PageId root, snap->TableRoot(name_));
  return BTree::LeafMapVia([snap](PageId id) { return snap->Fetch(id); },
                           root);
}

Result<BTree::ChunkCursor> Table::ScanChunk(PageSource* snap,
                                            std::vector<PageId> pages) const {
  return BTree::ScanChunkVia([snap](PageId id) { return snap->Fetch(id); },
                             std::move(pages), schema_.row_size());
}

Result<std::vector<uint8_t>> Table::EncodeRowShadow(const Row& row) const {
  Row adjusted = row;
  for (int i = 0; i < schema_.num_columns(); ++i) {
    if (schema_.column(i).type != ColumnType::kVarBinaryMax) continue;
    if (auto* bytes = std::get_if<std::vector<uint8_t>>(&adjusted[i])) {
      adjusted[i] =
          BlobId{kNullPage, static_cast<int64_t>(bytes->size())};
    }
  }
  std::vector<uint8_t> encoded(static_cast<size_t>(schema_.row_size()));
  SQLARRAY_RETURN_IF_ERROR(schema_.EncodeRow(adjusted, encoded.data()));
  return encoded;
}

Result<Table::BulkInserter> Table::StartBulkLoad() {
  SQLARRAY_ASSIGN_OR_RETURN(BTree::BulkLoader loader, tree_.StartBulkLoad());
  return BulkInserter(this, std::move(loader));
}

Status Table::BulkInserter::Add(Row row) {
  const Schema& schema = table_->schema();
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (schema.column(i).type != ColumnType::kVarBinaryMax) continue;
    if (auto* bytes = std::get_if<std::vector<uint8_t>>(&row[i])) {
      SQLARRAY_ASSIGN_OR_RETURN(BlobId id, table_->blobs_->Write(*bytes));
      row[i] = id;
    }
  }
  SQLARRAY_RETURN_IF_ERROR(schema.EncodeRow(row, encoded_.data()));
  return loader_.Add(encoded_);
}

Result<std::optional<Row>> Table::Lookup(int64_t key) {
  std::vector<uint8_t> encoded;
  SQLARRAY_ASSIGN_OR_RETURN(bool found, tree_.Lookup(key, &encoded));
  if (!found) return std::optional<Row>();
  SQLARRAY_ASSIGN_OR_RETURN(Row row, schema_.DecodeRow(encoded.data()));
  return std::optional<Row>(std::move(row));
}

Result<Table*> Database::CreateTable(const std::string& name, Schema schema) {
  if (tables_.count(name) != 0) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  SQLARRAY_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> table,
      Table::Create(name, std::move(schema), &pool_, &blobs_));
  Table* ptr = table.get();
  tables_[name] = std::move(table);
  return ptr;
}

Result<Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named " + name);
  }
  return it->second.get();
}

Status Database::AdoptTable(std::unique_ptr<Table> table) {
  if (tables_.count(table->name()) != 0) {
    return Status::AlreadyExists("table " + table->name() + " already exists");
  }
  tables_[table->name()] = std::move(table);
  return Status::OK();
}

}  // namespace sqlarray::storage
