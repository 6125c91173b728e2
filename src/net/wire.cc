#include "net/wire.h"

#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <optional>

#include "common/crc32c.h"
#include "obs/metrics.h"

namespace sqlarray::net {

namespace {

struct WireCounters {
  obs::Counter* frames_sent;
  obs::Counter* frames_received;
  obs::Counter* bytes_sent;
  obs::Counter* bytes_received;
  obs::Counter* crc_errors;

  static WireCounters& Get() {
    static WireCounters c = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return WireCounters{reg.GetCounter("net.frames_sent"),
                          reg.GetCounter("net.frames_received"),
                          reg.GetCounter("net.bytes_sent"),
                          reg.GetCounter("net.bytes_received"),
                          reg.GetCounter("net.crc_errors")};
    }();
    return c;
  }
};

/// Writes every byte of iov[0..count) with one sendmsg per attempt,
/// restarting on EINTR. A short send resumes in the iovec, and at the
/// offset, where the kernel stopped.
Status SendIovecs(int fd, iovec* iov, size_t count) {
  while (count > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = count;
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("net: send failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) return Status::Internal("net: send made no progress");
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= iov->iov_len) {
      sent -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<uint8_t*>(iov->iov_base) + sent;
      iov->iov_len -= sent;
    }
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `*got_any` reports whether at least one byte
/// arrived before EOF, so the caller can tell a clean close between frames
/// from a mid-frame truncation.
Status RecvAll(int fd, uint8_t* data, size_t size, bool* got_any) {
  size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::NotFound(std::string("net: recv failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && !*got_any) {
        return Status::NotFound("connection closed by peer");
      }
      return Status::InvalidArgument("net: frame truncated by peer close");
    }
    got += static_cast<size_t>(n);
    *got_any = true;
  }
  return Status::OK();
}

void PutU32At(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32At(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  return type >= static_cast<uint8_t>(FrameType::kHello) &&
         type <= static_cast<uint8_t>(FrameType::kGoodbye);
}

// ---------------------------------------------------------------------------
// PayloadWriter / PayloadReader
// ---------------------------------------------------------------------------

void PayloadWriter::PutU32(uint32_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
  buf_.push_back(static_cast<uint8_t>(v >> 16));
  buf_.push_back(static_cast<uint8_t>(v >> 24));
}

void PayloadWriter::PutU64(uint64_t v) {
  PutU32(static_cast<uint32_t>(v));
  PutU32(static_cast<uint32_t>(v >> 32));
}

void PayloadWriter::PutF64(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void PayloadWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void PayloadWriter::PutBytes(std::span<const uint8_t> b) {
  PutU32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

Result<uint8_t> PayloadReader::GetU8() {
  if (remaining() < 1) {
    return Status::InvalidArgument("net: payload underrun (u8)");
  }
  return data_[pos_++];
}

Result<uint32_t> PayloadReader::GetU32() {
  if (remaining() < 4) {
    return Status::InvalidArgument("net: payload underrun (u32)");
  }
  uint32_t v = GetU32At(data_.data() + pos_);
  pos_ += 4;
  return v;
}

Result<int32_t> PayloadReader::GetI32() {
  SQLARRAY_ASSIGN_OR_RETURN(uint32_t v, GetU32());
  return static_cast<int32_t>(v);
}

Result<uint64_t> PayloadReader::GetU64() {
  SQLARRAY_ASSIGN_OR_RETURN(uint32_t lo, GetU32());
  SQLARRAY_ASSIGN_OR_RETURN(uint32_t hi, GetU32());
  return static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
}

Result<int64_t> PayloadReader::GetI64() {
  SQLARRAY_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<double> PayloadReader::GetF64() {
  SQLARRAY_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<std::string> PayloadReader::GetString() {
  SQLARRAY_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (remaining() < len) {
    return Status::InvalidArgument("net: payload underrun (string)");
  }
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

Result<std::vector<uint8_t>> PayloadReader::GetBytes() {
  SQLARRAY_ASSIGN_OR_RETURN(uint32_t len, GetU32());
  if (remaining() < len) {
    return Status::InvalidArgument("net: payload underrun (bytes)");
  }
  std::vector<uint8_t> b(data_.begin() + static_cast<ptrdiff_t>(pos_),
                         data_.begin() + static_cast<ptrdiff_t>(pos_ + len));
  pos_ += len;
  return b;
}

// ---------------------------------------------------------------------------
// Value / stats encoding
// ---------------------------------------------------------------------------

namespace {
// Wire-stable value tags; independent of engine::Value::Kind ordering.
constexpr uint8_t kTagNull = 0;
constexpr uint8_t kTagInt64 = 1;
constexpr uint8_t kTagFloat64 = 2;
constexpr uint8_t kTagBytes = 3;
constexpr uint8_t kTagString = 4;
}  // namespace

Status AppendValue(PayloadWriter* w, const engine::Value& v) {
  using Kind = engine::Value::Kind;
  switch (v.kind()) {
    case Kind::kNull:
      w->PutU8(kTagNull);
      return Status::OK();
    case Kind::kInt64:
      w->PutU8(kTagInt64);
      w->PutI64(v.AsInt().value());
      return Status::OK();
    case Kind::kFloat64:
      w->PutU8(kTagFloat64);
      w->PutF64(v.AsDouble().value());
      return Status::OK();
    case Kind::kString:
      w->PutU8(kTagString);
      w->PutString(v.AsString().value());
      return Status::OK();
    case Kind::kBytes:
    case Kind::kBlob: {
      // Blobs are storage references; the client gets the payload itself.
      SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes,
                                v.MaterializeBytes());
      w->PutU8(kTagBytes);
      w->PutBytes(bytes);
      return Status::OK();
    }
  }
  return Status::Internal("net: unserializable value kind");
}

Result<engine::Value> ReadValue(PayloadReader* r) {
  SQLARRAY_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  switch (tag) {
    case kTagNull:
      return engine::Value::Null();
    case kTagInt64: {
      SQLARRAY_ASSIGN_OR_RETURN(int64_t v, r->GetI64());
      return engine::Value::Int(v);
    }
    case kTagFloat64: {
      SQLARRAY_ASSIGN_OR_RETURN(double v, r->GetF64());
      return engine::Value::Double(v);
    }
    case kTagString: {
      SQLARRAY_ASSIGN_OR_RETURN(std::string s, r->GetString());
      return engine::Value::Str(std::move(s));
    }
    case kTagBytes: {
      SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> b, r->GetBytes());
      return engine::Value::Bytes(std::move(b));
    }
    default:
      return Status::InvalidArgument("net: unknown value tag " +
                                     std::to_string(tag));
  }
}

void AppendStatsTrailer(PayloadWriter* w, const engine::QueryStats& stats) {
  w->PutI64(stats.rows_scanned);
  w->PutI64(stats.rows_kept);
  w->PutI64(stats.agg_steps);
  w->PutI64(stats.udf_calls);
  w->PutI64(stats.udf_bytes_marshaled);
  w->PutF64(stats.cpu_core_seconds);
  w->PutF64(stats.wall_seconds);
}

Status ReadStatsTrailer(PayloadReader* r, engine::QueryStats* stats) {
  SQLARRAY_ASSIGN_OR_RETURN(stats->rows_scanned, r->GetI64());
  SQLARRAY_ASSIGN_OR_RETURN(stats->rows_kept, r->GetI64());
  SQLARRAY_ASSIGN_OR_RETURN(stats->agg_steps, r->GetI64());
  SQLARRAY_ASSIGN_OR_RETURN(stats->udf_calls, r->GetI64());
  SQLARRAY_ASSIGN_OR_RETURN(stats->udf_bytes_marshaled, r->GetI64());
  // Modeled CPU arrives in seconds only; the ledger (cpu_ns) stays 0.
  SQLARRAY_ASSIGN_OR_RETURN(stats->cpu_core_seconds, r->GetF64());
  SQLARRAY_ASSIGN_OR_RETURN(stats->wall_seconds, r->GetF64());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Framed I/O
// ---------------------------------------------------------------------------

namespace {

/// Validates a received header: the checks every reader of a frame makes
/// before it trusts the length.
Result<FrameHeader> ParseHeader(const uint8_t* header, uint32_t max_payload) {
  if (GetU32At(header) != kFrameMagic) {
    return Status::InvalidArgument("net: bad frame magic");
  }
  if (header[4] != kProtocolVersion) {
    return Status::InvalidArgument("net: unsupported protocol version " +
                                   std::to_string(header[4]));
  }
  if (!IsKnownFrameType(header[5])) {
    return Status::InvalidArgument("net: unknown frame type " +
                                   std::to_string(header[5]));
  }
  if (header[6] != 0 || header[7] != 0) {
    return Status::InvalidArgument("net: reserved frame flags set");
  }
  FrameHeader h;
  h.type = static_cast<FrameType>(header[5]);
  h.payload_len = GetU32At(header + 8);
  h.payload_crc = GetU32At(header + 12);
  if (h.payload_len > max_payload) {
    return Status::InvalidArgument("net: frame payload length " +
                                   std::to_string(h.payload_len) +
                                   " exceeds cap " +
                                   std::to_string(max_payload));
  }
  return h;
}

}  // namespace

Status WriteFrame(int fd, FrameType type, std::span<const uint8_t> payload) {
  if (payload.size() > kMaxFramePayload) {
    return Status::InvalidArgument("net: frame payload too large");
  }
  uint8_t header[kFrameHeaderSize];
  PutU32At(header, kFrameMagic);
  header[4] = kProtocolVersion;
  header[5] = static_cast<uint8_t>(type);
  header[6] = 0;
  header[7] = 0;
  PutU32At(header + 8, static_cast<uint32_t>(payload.size()));
  PutU32At(header + 12,
           payload.empty() ? 0 : Crc32c(payload.data(), payload.size()));
  // Header and payload leave in one sendmsg: with TCP_NODELAY, two sends
  // would cross the wire as two segments.
  iovec iov[2] = {{header, kFrameHeaderSize},
                  {const_cast<uint8_t*>(payload.data()), payload.size()}};
  SQLARRAY_RETURN_IF_ERROR(SendIovecs(fd, iov, payload.empty() ? 1 : 2));
  WireCounters& c = WireCounters::Get();
  c.frames_sent->Add(1);
  c.bytes_sent->Add(static_cast<int64_t>(kFrameHeaderSize + payload.size()));
  return Status::OK();
}

Result<Frame> ReadFrame(int fd, uint32_t max_payload) {
  uint8_t header[kFrameHeaderSize];
  bool got_any = false;
  SQLARRAY_RETURN_IF_ERROR(RecvAll(fd, header, kFrameHeaderSize, &got_any));
  SQLARRAY_ASSIGN_OR_RETURN(FrameHeader h, ParseHeader(header, max_payload));
  Frame frame;
  frame.type = h.type;
  frame.payload.resize(h.payload_len);
  if (h.payload_len > 0) {
    SQLARRAY_RETURN_IF_ERROR(
        RecvAll(fd, frame.payload.data(), h.payload_len, &got_any));
  }
  uint32_t got_crc = h.payload_len == 0
                         ? 0
                         : Crc32c(frame.payload.data(), frame.payload.size());
  if (got_crc != h.payload_crc) {
    WireCounters::Get().crc_errors->Add(1);
    return Status::Corruption("net: frame payload CRC mismatch");
  }
  WireCounters& c = WireCounters::Get();
  c.frames_received->Add(1);
  c.bytes_received->Add(
      static_cast<int64_t>(kFrameHeaderSize + h.payload_len));
  return frame;
}

Result<std::optional<FrameHeader>> PeekBufferedFrame(int fd,
                                                     uint32_t max_payload) {
  uint8_t header[kFrameHeaderSize];
  ssize_t n;
  do {
    n = ::recv(fd, header, kFrameHeaderSize, MSG_PEEK | MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return std::optional<FrameHeader>();
    }
    return Status::NotFound(std::string("net: recv failed: ") +
                            std::strerror(errno));
  }
  if (n == 0) return Status::NotFound("connection closed by peer");
  if (static_cast<size_t>(n) < kFrameHeaderSize) {
    return std::optional<FrameHeader>();
  }
  SQLARRAY_ASSIGN_OR_RETURN(FrameHeader h, ParseHeader(header, max_payload));
  int buffered = 0;
  if (::ioctl(fd, FIONREAD, &buffered) != 0) {
    return Status::NotFound(std::string("net: FIONREAD failed: ") +
                            std::strerror(errno));
  }
  if (static_cast<size_t>(buffered) < kFrameHeaderSize + h.payload_len) {
    return std::optional<FrameHeader>();
  }
  return std::optional<FrameHeader>(h);
}

std::vector<uint8_t> EncodeError(const Status& st) {
  PayloadWriter w;
  w.PutI32(StatusCodeToWire(st.code()));
  w.PutI64(st.retry_after_ms());
  w.PutString(st.message());
  return w.Take();
}

Status DecodeError(std::span<const uint8_t> payload) {
  PayloadReader r(payload);
  Result<int32_t> wire_code = r.GetI32();
  Result<int64_t> retry_after_ms = r.GetI64();
  Result<std::string> message = r.GetString();
  if (!wire_code.ok() || !retry_after_ms.ok() || !message.ok()) {
    return Status::InvalidArgument("net: malformed ERROR frame");
  }
  return Status(StatusCodeFromWire(wire_code.value()),
                std::move(message).value(), retry_after_ms.value());
}

}  // namespace sqlarray::net
