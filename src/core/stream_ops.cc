#include "core/stream_ops.h"

#include <algorithm>
#include <cstring>

namespace sqlarray {

Result<ArrayHeader> ReadHeaderFromSource(ByteSource* source) {
  // First read the fixed prefix to learn the header size, then the rest.
  uint8_t prefix[kMaxHeaderPrefixSize];
  int64_t avail = source->size();
  if (avail < 8) {
    return Status::Corruption("streamed blob shorter than minimal header");
  }
  int64_t take = std::min<int64_t>(kMaxHeaderPrefixSize, avail);
  SQLARRAY_RETURN_IF_ERROR(source->ReadAt(
      0, std::span<uint8_t>(prefix, static_cast<size_t>(take))));
  SQLARRAY_ASSIGN_OR_RETURN(
      int64_t hsize,
      PeekHeaderSize(std::span<const uint8_t>(prefix,
                                              static_cast<size_t>(take))));
  if (hsize > avail) {
    return Status::Corruption("streamed blob truncated in header");
  }
  std::vector<uint8_t> header_bytes(static_cast<size_t>(hsize));
  SQLARRAY_RETURN_IF_ERROR(source->ReadAt(0, header_bytes));
  SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, DecodeHeader(header_bytes));
  if (h.blob_size() > avail) {
    return Status::Corruption("streamed blob payload truncated");
  }
  return h;
}

Result<double> StreamItem(ByteSource* source,
                          std::span<const int64_t> index) {
  SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, ReadHeaderFromSource(source));
  SQLARRAY_ASSIGN_OR_RETURN(int64_t linear, LinearIndex(h.dims, index));
  const int esize = DTypeSize(h.dtype);
  uint8_t buf[16];
  SQLARRAY_RETURN_IF_ERROR(source->ReadAt(
      h.header_size() + linear * esize,
      std::span<uint8_t>(buf, static_cast<size_t>(esize))));
  return ReadScalarAsDouble(h.dtype, buf);
}

Result<OwnedArray> StreamSubarray(ByteSource* source,
                                  std::span<const int64_t> offset,
                                  std::span<const int64_t> sizes,
                                  bool collapse) {
  SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, ReadHeaderFromSource(source));
  const Dims& dims = h.dims;
  if (offset.size() != dims.size() || sizes.size() != dims.size()) {
    return Status::InvalidArgument(
        "subarray offset/size rank must match the array rank");
  }
  for (size_t k = 0; k < dims.size(); ++k) {
    if (offset[k] < 0 || sizes[k] < 1 || sizes[k] > dims[k] - offset[k]) {
      return Status::OutOfRange("subarray range out of bounds for dimension " +
                                std::to_string(k));
    }
  }

  Dims out_dims;
  if (collapse) {
    for (int64_t s : sizes) {
      if (s != 1) out_dims.push_back(s);
    }
    if (out_dims.empty()) out_dims.push_back(1);
  } else {
    out_dims.assign(sizes.begin(), sizes.end());
  }
  SQLARRAY_ASSIGN_OR_RETURN(OwnedArray out,
                            OwnedArray::Zeros(h.dtype, out_dims));

  const int esize = DTypeSize(h.dtype);
  const Dims strides = ColumnMajorStrides(dims);
  const int rank = static_cast<int>(dims.size());
  const int64_t run_bytes = sizes[0] * esize;
  int64_t outer = 1;
  for (int k = 1; k < rank; ++k) outer *= sizes[k];

  // Coalesce adjacent runs: when the subarray spans full leading dimensions,
  // consecutive runs are contiguous in the source and can be read in one
  // ReadAt call. Detect the longest contiguous prefix.
  int64_t contiguous_runs = 1;
  {
    int k = 1;
    bool full_prefix = (offset[0] == 0 && sizes[0] == dims[0]);
    while (full_prefix && k < rank) {
      contiguous_runs *= sizes[k];
      if (!(offset[k] == 0 && sizes[k] == dims[k])) break;
      ++k;
    }
    if (!full_prefix) contiguous_runs = 1;
  }

  Dims cursor(rank, 0);
  uint8_t* d = out.mutable_payload().data();
  for (int64_t block = 0; block < outer; block += contiguous_runs) {
    int64_t src_linear = offset[0];
    for (int k = 1; k < rank; ++k) {
      src_linear += (offset[k] + cursor[k]) * strides[k];
    }
    int64_t bytes = run_bytes * contiguous_runs;
    SQLARRAY_RETURN_IF_ERROR(source->ReadAt(
        h.header_size() + src_linear * esize,
        std::span<uint8_t>(d, static_cast<size_t>(bytes))));
    d += bytes;
    // Advance the outer cursor by contiguous_runs positions.
    for (int64_t step = 0; step < contiguous_runs; ++step) {
      for (int k = 1; k < rank; ++k) {
        if (++cursor[k] < sizes[k]) break;
        cursor[k] = 0;
      }
    }
  }
  return out;
}

Result<OwnedArray> StreamReadAll(ByteSource* source) {
  SQLARRAY_ASSIGN_OR_RETURN(ArrayHeader h, ReadHeaderFromSource(source));
  std::vector<uint8_t> blob(static_cast<size_t>(h.blob_size()));
  SQLARRAY_RETURN_IF_ERROR(source->ReadAt(0, blob));
  return OwnedArray::FromBlob(std::move(blob));
}

}  // namespace sqlarray
