#include "sci/nbody/bucket.h"

#include <algorithm>
#include <map>
#include <vector>

#include "core/array.h"
#include "core/stream_ops.h"
#include "spatial/zorder.h"

namespace sqlarray::nbody {

namespace {

int64_t BucketKey(int step, uint64_t zcell) {
  return (static_cast<int64_t>(step) << 40) | static_cast<int64_t>(zcell);
}

}  // namespace

Result<storage::Table*> LoadBucketed(const Snapshot& snap,
                                     storage::Database* db,
                                     const std::string& table_name,
                                     uint32_t grid) {
  std::vector<storage::ColumnDef> cols = {
      {"key", storage::ColumnType::kInt64, 0},
      {"n", storage::ColumnType::kInt32, 0},
      {"ids", storage::ColumnType::kVarBinaryMax, 0},
      {"pos", storage::ColumnType::kVarBinaryMax, 0},
      {"vel", storage::ColumnType::kVarBinaryMax, 0},
  };
  SQLARRAY_ASSIGN_OR_RETURN(storage::Schema schema,
                            storage::Schema::Create(std::move(cols)));
  SQLARRAY_ASSIGN_OR_RETURN(storage::Table * table,
                            db->CreateTable(table_name, std::move(schema)));

  // Group particle indices by z-order cell; std::map iterates keys in
  // ascending (space-filling-curve) order for append-friendly inserts.
  std::map<uint64_t, std::vector<int64_t>> buckets;
  for (size_t i = 0; i < snap.particles.size(); ++i) {
    const spatial::Vec3& p = snap.particles[i].position;
    uint64_t cell = spatial::MortonCellOf(p.x, p.y, p.z, snap.box, grid);
    buckets[cell].push_back(static_cast<int64_t>(i));
  }

  for (const auto& [cell, members] : buckets) {
    const int64_t n = static_cast<int64_t>(members.size());
    // Filled in plain vectors and copied in: the rank-1 max id array's
    // payload is not 8-byte aligned.
    std::vector<int64_t> ids_d(members.size());
    std::vector<double> pos_d(3 * members.size());
    std::vector<double> vel_d(3 * members.size());
    for (int64_t j = 0; j < n; ++j) {
      const Particle& p = snap.particles[members[j]];
      ids_d[j] = p.id;
      pos_d[0 + 3 * j] = p.position.x;
      pos_d[1 + 3 * j] = p.position.y;
      pos_d[2 + 3 * j] = p.position.z;
      vel_d[0 + 3 * j] = p.velocity.x;
      vel_d[1 + 3 * j] = p.velocity.y;
      vel_d[2 + 3 * j] = p.velocity.z;
    }
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray ids, OwnedArray::FromValues<int64_t>({n}, ids_d,
                                                        StorageClass::kMax));
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray pos, OwnedArray::FromValues<double>({3, n}, pos_d,
                                                       StorageClass::kMax));
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray vel, OwnedArray::FromValues<double>({3, n}, vel_d,
                                                       StorageClass::kMax));

    storage::Row row(5);
    row[0] = BucketKey(snap.step, cell);
    row[1] = static_cast<int32_t>(n);
    row[2] = std::move(ids).TakeBlob();
    row[3] = std::move(pos).TakeBlob();
    row[4] = std::move(vel).TakeBlob();
    SQLARRAY_RETURN_IF_ERROR(table->Insert(std::move(row)));
  }
  return table;
}

Result<storage::Table*> LoadPerPoint(const Snapshot& snap,
                                     storage::Database* db,
                                     const std::string& table_name) {
  std::vector<storage::ColumnDef> cols = {
      {"key", storage::ColumnType::kInt64, 0},
      {"x", storage::ColumnType::kFloat64, 0},
      {"y", storage::ColumnType::kFloat64, 0},
      {"z", storage::ColumnType::kFloat64, 0},
      {"vx", storage::ColumnType::kFloat64, 0},
      {"vy", storage::ColumnType::kFloat64, 0},
      {"vz", storage::ColumnType::kFloat64, 0},
  };
  SQLARRAY_ASSIGN_OR_RETURN(storage::Schema schema,
                            storage::Schema::Create(std::move(cols)));
  SQLARRAY_ASSIGN_OR_RETURN(storage::Table * table,
                            db->CreateTable(table_name, std::move(schema)));

  // Ascending keys (step, id) for dense append inserts.
  for (const Particle& p : snap.particles) {
    SQLARRAY_RETURN_IF_ERROR(table->Insert(
        {(static_cast<int64_t>(snap.step) << 40) | p.id, p.position.x,
         p.position.y, p.position.z, p.velocity.x, p.velocity.y,
         p.velocity.z}));
  }
  return table;
}

Result<spatial::Vec3> LookupBucketedParticle(storage::Table* table,
                                             const Snapshot& snap,
                                             uint32_t grid,
                                             int64_t particle_id,
                                             const spatial::Vec3& hint) {
  uint64_t cell =
      spatial::MortonCellOf(hint.x, hint.y, hint.z, snap.box, grid);
  SQLARRAY_ASSIGN_OR_RETURN(std::optional<storage::Row> row,
                            table->Lookup(BucketKey(snap.step, cell)));
  if (!row.has_value()) {
    return Status::NotFound("bucket row missing");
  }
  SQLARRAY_ASSIGN_OR_RETURN(
      std::vector<uint8_t> ids_blob,
      table->ReadBlob(std::get<storage::BlobId>((*row)[2])));
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray ids,
                            OwnedArray::FromBlob(std::move(ids_blob)));
  SQLARRAY_ASSIGN_OR_RETURN(std::vector<int64_t> ids_d,
                            ids.ref().CopyData<int64_t>());
  for (size_t j = 0; j < ids_d.size(); ++j) {
    if (ids_d[j] != particle_id) continue;
    // Stream just this particle's column from the position array.
    SQLARRAY_ASSIGN_OR_RETURN(
        storage::BlobStream stream,
        table->OpenBlob(std::get<storage::BlobId>((*row)[3])));
    Dims offset{0, static_cast<int64_t>(j)};
    Dims sizes{3, 1};
    SQLARRAY_ASSIGN_OR_RETURN(
        OwnedArray col, StreamSubarray(&stream, offset, sizes, true));
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<double> v,
                              col.ref().CopyData<double>());
    return spatial::Vec3{v[0], v[1], v[2]};
  }
  return Status::NotFound("particle not in its bucket");
}

}  // namespace sqlarray::nbody
