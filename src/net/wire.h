// Length-prefixed binary wire protocol for the networked front-end.
//
// Every message on the socket is one frame: a fixed 16-byte header followed
// by a CRC32C-protected payload. The header is little-endian:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------
//        0     4  magic       0x53514157 ("WQSA" on disk; rejects strays)
//        4     1  version     protocol version, currently 1
//        5     1  type        FrameType
//        6     2  flags       reserved, must be 0
//        8     4  payload_len bytes following the header (bounded)
//       12     4  payload_crc CRC32C of the payload bytes (0 when empty)
//
// The CRC reuses the WAL's checksum code (common/crc32c.h), so a frame
// damaged in flight surfaces as kCorruption exactly like a torn log record.
// Frames whose header fails validation (bad magic/version/type, oversized
// length) are kInvalidArgument; a clean peer shutdown mid-header is
// kNotFound("connection closed by peer") so teardown can tell disconnects
// from protocol abuse.
//
// Conversation shape (client → server unless noted):
//   HELLO   version negotiation; server replies HELLO.
//   AUTH    user + password; server replies AUTH (session id) or ERROR.
//   QUERY   one SQL batch; server streams ROWS chunks, the last chunk
//           carrying the statement outcome trailer, or a single ERROR.
//   ROWS    (server) one chunk of a result set; see RowsChunk.
//   ERROR   (server) stable numeric StatusCode + retry-after + message.
//   CANCEL  kills the in-flight statement (server sends no direct reply;
//           the kill surfaces as an ERROR ending the QUERY stream).
//   PING    liveness probe; the receiver echoes the frame back verbatim.
//   GOODBYE clean close; server acks with GOODBYE and drops the session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/exec.h"
#include "engine/value.h"

namespace sqlarray::net {

inline constexpr uint32_t kFrameMagic = 0x53514157u;
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderSize = 16;

/// Hard ceiling on one frame's payload. Large result sets stream as many
/// ROWS chunks, so a compliant peer never needs a bigger frame; anything
/// claiming one is malformed or hostile and is rejected before allocation.
inline constexpr uint32_t kMaxFramePayload = 16u * 1024 * 1024;

enum class FrameType : uint8_t {
  kHello = 1,
  kAuth = 2,
  kQuery = 3,
  kRows = 4,
  kError = 5,
  kCancel = 6,
  kPing = 7,
  kGoodbye = 8,
};

/// True for the frame types a peer may legally send (reception filter).
bool IsKnownFrameType(uint8_t type);

/// Bit flags inside a ROWS payload (not the reserved header flags).
enum RowsFlags : uint32_t {
  /// First chunk of a result set: the payload carries the column names.
  kRowsFirstChunk = 1u << 0,
  /// Last chunk of this result set.
  kRowsLastChunk = 1u << 1,
  /// Final frame of the statement: the payload ends with the outcome
  /// trailer (result-set count + execution statistics).
  kRowsStatementDone = 1u << 2,
};

/// result_index value of a statement-done frame that carries no rows
/// (DDL/DML batches produce zero result sets but still need a terminator).
inline constexpr uint32_t kNoResultSet = 0xFFFFFFFFu;

struct Frame {
  FrameType type = FrameType::kPing;
  std::vector<uint8_t> payload;
};

/// The fields of a header that passed validation.
struct FrameHeader {
  FrameType type = FrameType::kPing;
  uint32_t payload_len = 0;
  uint32_t payload_crc = 0;
};

// ---------------------------------------------------------------------------
// Payload serialization: a bounds-checked little-endian writer/reader pair.
// ---------------------------------------------------------------------------

class PayloadWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  /// u32 length + raw bytes.
  void PutString(std::string_view s);
  void PutBytes(std::span<const uint8_t> b);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Reads the writer's encoding back; every getter fails with
/// kInvalidArgument instead of reading past the end, so a truncated or
/// hostile payload can never over-read.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<int32_t> GetI32();
  Result<uint64_t> GetU64();
  Result<int64_t> GetI64();
  Result<double> GetF64();
  Result<std::string> GetString();
  Result<std::vector<uint8_t>> GetBytes();

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Value / result-set encoding shared by NetServer and NetClient.
// ---------------------------------------------------------------------------

/// Serializes one engine value. Kind tags are wire-stable: 0 null,
/// 1 int64, 2 float64, 3 bytes, 4 string. Blob references are materialized
/// server-side and travel as bytes — the client never sees storage ids.
Status AppendValue(PayloadWriter* w, const engine::Value& v);
Result<engine::Value> ReadValue(PayloadReader* r);

/// Execution statistics carried in the statement-done trailer.
void AppendStatsTrailer(PayloadWriter* w, const engine::QueryStats& stats);
Status ReadStatsTrailer(PayloadReader* r, engine::QueryStats* stats);

// ---------------------------------------------------------------------------
// Framed socket I/O. `fd` is a connected stream socket; the helpers handle
// partial transfers and EINTR. Writers never raise SIGPIPE.
// ---------------------------------------------------------------------------

/// Sends one frame, header and payload, with one sendmsg per attempt; a
/// short send resumes where it stopped. Bumps
/// net.frames_sent/net.bytes_sent.
Status WriteFrame(int fd, FrameType type, std::span<const uint8_t> payload);

/// Reads one frame. Distinguishes clean peer close before any header byte
/// (kNotFound) from truncation mid-frame (kInvalidArgument), header abuse
/// (kInvalidArgument), and payload CRC mismatch (kCorruption). Bumps
/// net.frames_received/net.bytes_received.
Result<Frame> ReadFrame(int fd, uint32_t max_payload = kMaxFramePayload);

/// Looks at the next frame without consuming a byte or blocking (a peeked
/// header plus FIONREAD). Returns its header when the whole frame is
/// already buffered, so a ReadFrame after it cannot block, and nullopt
/// when it is not yet. A closed peer is kNotFound and a malformed header
/// kInvalidArgument, as in ReadFrame.
Result<std::optional<FrameHeader>> PeekBufferedFrame(
    int fd, uint32_t max_payload = kMaxFramePayload);

/// Builds the ERROR payload for a status: i32 wire code, i64 retry-after
/// milliseconds, message string.
std::vector<uint8_t> EncodeError(const Status& st);
/// Decodes an ERROR payload back into a Status carrying the same stable
/// code, retry-after hint, and message. A payload that does not parse
/// decodes as kInvalidArgument("malformed ERROR frame").
Status DecodeError(std::span<const uint8_t> payload);

}  // namespace sqlarray::net
