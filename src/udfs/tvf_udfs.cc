// Table-valued functions: exploding arrays into rows (Sec. 5.1's
// "Arrays can be converted to tables by various table-valued functions,
// e.g. ToTable, MatrixToTable etc.").
#include "core/concat.h"
#include "udfs/helpers.h"
#include "udfs/register.h"

namespace sqlarray::udfs {

namespace {

using engine::TableValuedFunction;

/// Builds the ToTable-family TVF for a fixed rank: rank index columns plus
/// the value column.
TableValuedFunction MakeToTable(DType dtype, StorageClass sc, int rank,
                                const char* name) {
  TableValuedFunction tvf;
  tvf.schema = std::string(DTypeSchemaPrefix(dtype)) + "Array" +
               (sc == StorageClass::kMax ? "Max" : "");
  tvf.name = name;
  tvf.arity = 1;
  static const char* kIndexNames[] = {"ix", "iy", "iz", "iw", "iv", "iu"};
  for (int k = 0; k < rank; ++k) tvf.columns.push_back(kIndexNames[k]);
  tvf.columns.push_back("v");

  tvf.fn = [dtype, sc, rank](std::span<const Value> args, UdfContext&)
      -> Result<std::vector<std::vector<Value>>> {
    SQLARRAY_ASSIGN_OR_RETURN(OwnedArray a, ArrayFromValue(args[0]));
    if (a.dtype() != dtype || a.storage() != sc) {
      return Status::TypeMismatch(
          "array does not match the schema's element type / storage class");
    }
    if (a.rank() != rank) {
      return Status::InvalidArgument(
          "array rank does not match this table-valued function; use the "
          "variant for rank " + std::to_string(a.rank()));
    }
    SQLARRAY_ASSIGN_OR_RETURN(std::vector<ArrayTableRow> exploded,
                              ToTable(a.ref()));
    std::vector<std::vector<Value>> rows;
    rows.reserve(exploded.size());
    for (const ArrayTableRow& r : exploded) {
      std::vector<Value> row;
      row.reserve(rank + 1);
      for (int k = 0; k < rank; ++k) row.push_back(Value::Int(r.index[k]));
      row.push_back(Value::Double(r.value));
      rows.push_back(std::move(row));
    }
    return rows;
  };
  return tvf;
}

}  // namespace

Status RegisterTableValuedUdfs(engine::FunctionRegistry* registry) {
  for (int d = 0; d < kNumDTypes; ++d) {
    DType dtype = static_cast<DType>(d);
    if (IsComplexDType(dtype)) continue;  // ToTable explodes real values
    for (StorageClass sc : {StorageClass::kShort, StorageClass::kMax}) {
      SQLARRAY_RETURN_IF_ERROR(
          registry->RegisterTvf(MakeToTable(dtype, sc, 1, "ToTable")));
      SQLARRAY_RETURN_IF_ERROR(
          registry->RegisterTvf(MakeToTable(dtype, sc, 2, "MatrixToTable")));
      SQLARRAY_RETURN_IF_ERROR(
          registry->RegisterTvf(MakeToTable(dtype, sc, 3, "CubeToTable")));
    }
  }
  return Status::OK();
}

}  // namespace sqlarray::udfs
