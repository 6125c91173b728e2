// Shared plumbing between engine values and array blobs.
//
// UDF bodies receive engine::Values that hold either inline bytes (short
// arrays, or max arrays built in expressions) or out-of-page blob references
// (max arrays read from VARBINARY(MAX) columns). The helpers here parse and
// build arrays from both, using streamed partial reads for blob-backed
// arguments whenever the operation permits.
#pragma once

#include <complex>

#include "common/dims.h"
#include "common/status.h"
#include "core/array.h"
#include "core/stream_ops.h"
#include "engine/udf.h"

namespace sqlarray::udfs {

/// Materializes an array argument (full read for blob-backed values).
Result<OwnedArray> ArrayFromValue(const engine::Value& v,
                                  engine::UdfContext& ctx);

/// Reads ONLY the header of an array argument (partial read for blobs).
Result<ArrayHeader> HeaderFromValue(const engine::Value& v,
                                    engine::UdfContext& ctx);

/// Parses an integer vector argument (the paper passes offsets/sizes as
/// IntArray vectors) into a Dims list.
Result<Dims> DimsFromValue(const engine::Value& v, engine::UdfContext& ctx);

/// Wraps an owned array into a bytes value.
engine::Value ValueFromArray(OwnedArray array);

/// Item read that touches only one element for blob-backed max arrays.
Result<double> ItemFromValue(const engine::Value& v,
                             std::span<const int64_t> index,
                             engine::UdfContext& ctx);

/// Subarray extraction using streamed partial reads for blob arguments.
Result<OwnedArray> SubarrayFromValue(const engine::Value& v,
                                     std::span<const int64_t> offset,
                                     std::span<const int64_t> sizes,
                                     bool collapse, engine::UdfContext& ctx);

/// Complex scalar UDT codec (native serialization of the paper's complex
/// UDTs): 8 bytes (two float32) for single precision, 16 (two float64) for
/// double precision.
std::vector<uint8_t> EncodeComplexUdt(std::complex<double> v, bool single);
Result<std::complex<double>> DecodeComplexUdt(std::span<const uint8_t> bytes);

/// Registers a hosted (CLR-boundary) scalar function: its row function
/// and, when it has one, its column kernel, which returns FLOAT lanes.
Status Reg(engine::FunctionRegistry* reg, std::string schema,
           std::string name, int arity, double work, engine::ScalarFn fn,
           engine::ColumnKernel kernel = nullptr);

/// Reads the integer arguments args[first..first+count) into a Dims list.
Result<Dims> IndexArgs(std::span<const engine::Value> args, size_t first,
                       size_t count);

}  // namespace sqlarray::udfs
