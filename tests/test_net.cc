// Tests for the networked front-end: wire-frame encode/decode and frames
// larger than the socket buffers, salted-hash authentication with lockout
// and per-user session caps, the NetServer/NetClient round trip
// (byte-identical result fingerprints vs the in-process ArrayServer path),
// typed ERROR frames for overload rejection, malformed/truncated/
// oversized-frame fuzzing, control frames during a statement (CANCEL,
// PING, GOODBYE, pipelined QUERYs), mid-query client disconnects and
// Stop() triggering KillQuery + WAL rollback, and the release of closed
// connections' threads. Built plain and in the sanitizer trees
// (tsan_net_suite, asan_net_suite).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "client/net_client.h"
#include "engine/exec.h"
#include "mvcc/mvcc.h"
#include "net/auth.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "server/server.h"
#include "sql/session.h"
#include "udfs/register.h"
#include "wal/wal.h"

namespace sqlarray {
namespace {

using engine::Value;

// ---------------------------------------------------------------------------
// Wire payloads
// ---------------------------------------------------------------------------

TEST(Wire, PayloadRoundTrip) {
  net::PayloadWriter w;
  w.PutU8(7);
  w.PutU32(0xDEADBEEFu);
  w.PutI32(-12);
  w.PutU64(0x0102030405060708ull);
  w.PutI64(-123456789012345ll);
  w.PutF64(3.5);
  w.PutString("hello");
  std::vector<uint8_t> blob = {1, 2, 3};
  w.PutBytes(blob);

  net::PayloadReader r(w.buffer());
  EXPECT_EQ(r.GetU8().value(), 7);
  EXPECT_EQ(r.GetU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.GetI32().value(), -12);
  EXPECT_EQ(r.GetU64().value(), 0x0102030405060708ull);
  EXPECT_EQ(r.GetI64().value(), -123456789012345ll);
  EXPECT_EQ(r.GetF64().value(), 3.5);
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_EQ(r.GetBytes().value(), blob);
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, ReaderNeverOverReads) {
  net::PayloadWriter w;
  w.PutU32(100);  // claims a 100-byte string follows; nothing does
  net::PayloadReader r(w.buffer());
  EXPECT_EQ(r.GetString().status().code(), StatusCode::kInvalidArgument);
  net::PayloadReader r2(w.buffer());
  EXPECT_TRUE(r2.GetU32().ok());
  EXPECT_EQ(r2.GetU8().status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, ValueRoundTrip) {
  std::vector<Value> vals = {Value::Null(), Value::Int(42),
                             Value::Double(-2.25), Value::Str("text")};
  net::PayloadWriter w;
  for (const Value& v : vals) ASSERT_TRUE(net::AppendValue(&w, v).ok());
  net::PayloadReader r(w.buffer());
  EXPECT_TRUE(net::ReadValue(&r).value().is_null());
  EXPECT_EQ(net::ReadValue(&r).value().AsInt().value(), 42);
  EXPECT_EQ(net::ReadValue(&r).value().AsDouble().value(), -2.25);
  EXPECT_EQ(net::ReadValue(&r).value().AsString().value(), "text");
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, ErrorFrameCarriesTypedStatus) {
  Status st = Status::ResourceExhausted("queue full", 25);
  auto payload = net::EncodeError(st);
  Status back = net::DecodeError(payload);
  EXPECT_EQ(back.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(back.retry_after_ms(), 25);
  EXPECT_NE(back.message().find("queue full"), std::string::npos);
}

TEST(Wire, StatusCodeWireValuesAreFrozen) {
  // These numbers are serialized in ERROR frames; changing them breaks
  // deployed clients. Append-only.
  EXPECT_EQ(StatusCodeToWire(StatusCode::kOk), 0);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kInvalidArgument), 1);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kCorruption), 4);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kNotFound), 5);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kResourceExhausted), 7);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kCancelled), 10);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kDeadlineExceeded), 11);
  EXPECT_EQ(StatusCodeToWire(StatusCode::kPermissionDenied), 12);
  EXPECT_EQ(StatusCodeFromWire(7), StatusCode::kResourceExhausted);
  EXPECT_EQ(StatusCodeFromWire(999), StatusCode::kInternal);  // unknown
}

/// A pattern no run of zeros or repeated bytes can fake.
std::vector<uint8_t> PatternBytes(size_t n) {
  std::vector<uint8_t> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>((i * 2654435761u) >> 13);
  }
  return out;
}

TEST(Wire, EmptyFramesAreSixteenBytes) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::vector<uint8_t> one = {'p'};
  ASSERT_TRUE(net::WriteFrame(sv[0], net::FrameType::kPing, {}).ok());
  ASSERT_TRUE(net::WriteFrame(sv[0], net::FrameType::kGoodbye, {}).ok());
  ASSERT_TRUE(net::WriteFrame(sv[0], net::FrameType::kPing, one).ok());
  ::shutdown(sv[0], SHUT_WR);
  std::vector<uint8_t> wire;
  uint8_t buf[256];
  for (ssize_t n; (n = ::recv(sv[1], buf, sizeof(buf), 0)) > 0;) {
    wire.insert(wire.end(), buf, buf + n);
  }
  ::close(sv[0]);
  ::close(sv[1]);
  // Two bare headers (payload length and CRC both 0), then one header plus
  // its one payload byte.
  ASSERT_EQ(wire.size(), 3 * net::kFrameHeaderSize + 1);
  EXPECT_EQ(wire[5], static_cast<uint8_t>(net::FrameType::kPing));
  EXPECT_EQ(wire[16 + 5], static_cast<uint8_t>(net::FrameType::kGoodbye));
  for (size_t at : {size_t{0}, size_t{16}}) {
    EXPECT_TRUE(std::all_of(wire.begin() + at + 8, wire.begin() + at + 16,
                            [](uint8_t b) { return b == 0; }));
  }
  EXPECT_EQ(wire[32 + 8], 1);
  EXPECT_EQ(wire.back(), 'p');
}

TEST(Wire, FrameLargerThanTheSocketBufferRoundTrips) {
  // A Unix socket buffers a few hundred kB, so the writer's sendmsg
  // returns short many times and must resume at the right offset.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::vector<uint8_t> payload = PatternBytes(6u << 20);
  Status sent;
  std::thread writer([&] {
    sent = net::WriteFrame(sv[0], net::FrameType::kRows, payload);
  });
  Result<net::Frame> got = net::ReadFrame(sv[1]);
  writer.join();
  ::close(sv[0]);
  ::close(sv[1]);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->type, net::FrameType::kRows);
  EXPECT_TRUE(got->payload == payload);
}

// ---------------------------------------------------------------------------
// AuthManager
// ---------------------------------------------------------------------------

TEST(Auth, AcceptsCorrectPasswordRejectsWrong) {
  net::AuthManager auth;
  ASSERT_TRUE(auth.AddUser("alice", "s3cret").ok());
  EXPECT_EQ(auth.AddUser("alice", "x").code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(auth.Authenticate("alice", "s3cret").ok());
  EXPECT_EQ(auth.Authenticate("alice", "wrong").code(),
            StatusCode::kPermissionDenied);
  // Unknown users are indistinguishable from wrong passwords.
  EXPECT_EQ(auth.Authenticate("mallory", "s3cret").code(),
            StatusCode::kPermissionDenied);
}

TEST(Auth, LockoutAfterConsecutiveFailures) {
  net::AuthConfig cfg;
  cfg.max_failures = 2;
  cfg.lockout_ms = 80;
  net::AuthManager auth(cfg);
  ASSERT_TRUE(auth.AddUser("bob", "pw").ok());
  EXPECT_FALSE(auth.Authenticate("bob", "a").ok());
  EXPECT_FALSE(auth.Authenticate("bob", "b").ok());
  // Locked: even the correct password is refused, with a retry-after hint.
  Status locked = auth.Authenticate("bob", "pw");
  EXPECT_EQ(locked.code(), StatusCode::kPermissionDenied);
  EXPECT_GT(locked.retry_after_ms(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_TRUE(auth.Authenticate("bob", "pw").ok());
  // SetPassword clears a fresh lockout immediately.
  EXPECT_FALSE(auth.Authenticate("bob", "a").ok());
  EXPECT_FALSE(auth.Authenticate("bob", "b").ok());
  ASSERT_TRUE(auth.SetPassword("bob", "pw2").ok());
  EXPECT_TRUE(auth.Authenticate("bob", "pw2").ok());
}

TEST(Auth, PerUserSessionCap) {
  net::AuthConfig cfg;
  cfg.max_sessions_per_user = 2;
  net::AuthManager auth(cfg);
  ASSERT_TRUE(auth.AddUser("carol", "pw").ok());
  EXPECT_TRUE(auth.AcquireSession("carol").ok());
  EXPECT_TRUE(auth.AcquireSession("carol").ok());
  Status over = auth.AcquireSession("carol");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(over.retry_after_ms(), 0);
  auth.ReleaseSession("carol");
  EXPECT_TRUE(auth.AcquireSession("carol").ok());
  EXPECT_EQ(auth.active_sessions("carol"), 2);
}

// ---------------------------------------------------------------------------
// NetServer + NetClient end to end
// ---------------------------------------------------------------------------

/// Registers Test.Slow(x): sleeps ~1ms per call and returns x. Keeps a
/// statement in flight long enough for CANCEL/disconnect to land mid-query.
void RegisterSlowUdf(engine::FunctionRegistry* registry) {
  engine::ScalarFunction slow;
  slow.schema = "Test";
  slow.name = "Slow";
  slow.arity = 1;
  slow.boundary = engine::Boundary::kClr;
  slow.fn = [](std::span<const Value> args,
               engine::UdfContext&) -> Result<Value> {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return args[0];
  };
  ASSERT_TRUE(registry->RegisterScalar(std::move(slow)).ok());
}

/// Byte-level digest of a result set (same shape as test_parallel's): used
/// to assert the wire path reproduces the in-process path exactly.
std::string Fingerprint(const engine::ResultSet& rs) {
  std::string out;
  for (const std::string& c : rs.columns) {
    out += c;
    out += ';';
  }
  for (const auto& row : rs.rows) {
    for (const Value& v : row) {
      out.push_back(static_cast<char>(v.kind()));
      if (v.is_null()) {
        out += "<null>";
      } else if (v.kind() == Value::Kind::kInt64) {
        int64_t x = v.AsInt().value();
        out.append(reinterpret_cast<const char*>(&x), sizeof(x));
      } else if (v.kind() == Value::Kind::kFloat64) {
        double d = v.AsDouble().value();
        out.append(reinterpret_cast<const char*>(&d), sizeof(d));
      } else if (v.kind() == Value::Kind::kString) {
        out += v.AsString().value();
      }
      out.push_back('|');
    }
    out.push_back('\n');
  }
  return out;
}

class NetTest : public ::testing::Test {
 protected:
  NetTest()
      : wal_(&db_), mvcc_(&db_, &wal_), executor_(&db_, &registry_) {
    EXPECT_TRUE(udfs::RegisterAllUdfs(&registry_).ok());
    RegisterSlowUdf(&registry_);
  }

  /// Builds the full stack (ArrayServer → AuthManager → NetServer) and
  /// starts listening on an ephemeral loopback port.
  void StartStack(server::ServerConfig server_cfg = {},
                  net::AuthConfig auth_cfg = {},
                  net::NetServerConfig net_cfg = {}) {
    srv_ = std::make_unique<server::ArrayServer>(&executor_, server_cfg);
    auth_ = std::make_unique<net::AuthManager>(auth_cfg);
    ASSERT_TRUE(auth_->AddUser("alice", "s3cret").ok());
    net_ = std::make_unique<net::NetServer>(srv_.get(), auth_.get(), net_cfg);
    ASSERT_TRUE(net_->Start().ok());
  }

  void TearDown() override {
    if (net_) net_->Stop();
  }

  std::unique_ptr<client::NetClient> ConnectAuthed() {
    auto c = client::NetClient::Connect("127.0.0.1", net_->port());
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    if (!c.ok()) return nullptr;
    Status st = (*c)->Authenticate("alice", "s3cret");
    EXPECT_TRUE(st.ok()) << st.ToString();
    return std::move(*c);
  }

  /// A raw connected socket for protocol-abuse tests.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(net_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return fd;
  }

  /// A raw socket past HELLO and AUTH, with a receive timeout so a server
  /// that never answers fails the test instead of hanging it.
  int RawAuthed() {
    int fd = RawConnect();
    timeval tv{};
    tv.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    net::PayloadWriter hello;
    hello.PutU32(net::kProtocolVersion);
    hello.PutString("raw-client");
    EXPECT_TRUE(
        net::WriteFrame(fd, net::FrameType::kHello, hello.buffer()).ok());
    auto reply = net::ReadFrame(fd);
    EXPECT_TRUE(reply.ok() && reply->type == net::FrameType::kHello);
    net::PayloadWriter creds;
    creds.PutString("alice");
    creds.PutString("s3cret");
    EXPECT_TRUE(
        net::WriteFrame(fd, net::FrameType::kAuth, creds.buffer()).ok());
    auto authed = net::ReadFrame(fd);
    EXPECT_TRUE(authed.ok() && authed->type == net::FrameType::kAuth);
    return fd;
  }

  static Status SendQuery(int fd, const std::string& sql) {
    net::PayloadWriter q;
    q.PutString(sql);
    return net::WriteFrame(fd, net::FrameType::kQuery, q.buffer());
  }

  /// Reads one statement's reply on a raw socket: the ERROR's status, or
  /// the first value of the first row (NULL when there is none).
  static Result<Value> ReadReply(int fd) {
    std::optional<Value> first;
    for (;;) {
      SQLARRAY_ASSIGN_OR_RETURN(net::Frame f, net::ReadFrame(fd));
      if (f.type == net::FrameType::kError) return net::DecodeError(f.payload);
      if (f.type != net::FrameType::kRows) {
        return Status::InvalidArgument(
            "frame type " + std::to_string(static_cast<int>(f.type)) +
            " inside a reply");
      }
      net::PayloadReader r(f.payload);
      SQLARRAY_ASSIGN_OR_RETURN(uint32_t flags, r.GetU32());
      SQLARRAY_RETURN_IF_ERROR(r.GetU32().status());  // result index
      if (flags & net::kRowsFirstChunk) {
        SQLARRAY_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
        for (uint32_t c = 0; c < ncols; ++c) {
          SQLARRAY_RETURN_IF_ERROR(r.GetString().status());
        }
      }
      SQLARRAY_ASSIGN_OR_RETURN(uint32_t nrows, r.GetU32());
      SQLARRAY_ASSIGN_OR_RETURN(std::vector<uint8_t> rows, r.GetBytes());
      if (!first.has_value() && nrows > 0) {
        net::PayloadReader rr(rows);
        SQLARRAY_ASSIGN_OR_RETURN(Value v, net::ReadValue(&rr));
        first = std::move(v);
      }
      if (flags & net::kRowsStatementDone) {
        return first.has_value() ? *first : Value::Null();
      }
    }
  }

  /// Creates `name (id BIGINT, v BIGINT)` holding ids 0..rows-1, each v 1.
  void CreateOnes(const std::string& name, int rows) {
    auto setup = ConnectAuthed();
    ASSERT_NE(setup, nullptr);
    ASSERT_TRUE(
        setup->Execute("CREATE TABLE " + name + " (id BIGINT, v BIGINT)")
            .ok());
    std::string values;
    for (int i = 0; i < rows; ++i) {
      if (i > 0) values += ", ";
      values += "(" + std::to_string(i) + ", 1)";
    }
    ASSERT_TRUE(
        setup->Execute("INSERT INTO " + name + " VALUES " + values).ok());
  }

  int64_t CountRows(const std::string& name) {
    sql::Session check(&executor_);
    auto rs = check.Execute("SELECT COUNT(id) FROM " + name);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString();
    return rs.ok() ? rs.value().at(0).rows.at(0).at(0).AsInt().value() : -1;
  }

  storage::Database db_;
  wal::WalManager wal_;
  mvcc::MvccManager mvcc_;
  engine::FunctionRegistry registry_;
  engine::Executor executor_;
  std::unique_ptr<server::ArrayServer> srv_;
  std::unique_ptr<net::AuthManager> auth_;
  std::unique_ptr<net::NetServer> net_;
};

TEST_F(NetTest, AuthenticatedQueryMatchesInProcessFingerprint) {
  StartStack();
  auto client = ConnectAuthed();
  ASSERT_NE(client, nullptr);
  EXPECT_GE(client->session_id(), 0);

  ASSERT_TRUE(client->Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 900; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", " + std::to_string(i * 3) + ")";
  }
  ASSERT_TRUE(client->Execute("INSERT INTO t VALUES " + values).ok());

  const std::string q =
      "SELECT id, v, v * 2 + 1 FROM t WHERE id % 7 = 0";
  // In-process reference through the same ArrayServer.
  int64_t ref_id = srv_->OpenSession();
  auto ref = srv_->Execute(ref_id, q);
  ASSERT_TRUE(ref.ok()) << ref.status.ToString();

  auto out = client->Execute(q);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  ASSERT_EQ(out.result_sets.size(), ref.result_sets.size());
  EXPECT_EQ(Fingerprint(out.result_sets.at(0)),
            Fingerprint(ref.result_sets.at(0)));
  // The profile handle crossed the wire too.
  EXPECT_GT(out.stats.rows_scanned, 0);
  EXPECT_EQ(out.stats.rows_scanned, ref.stats.rows_scanned);
  EXPECT_TRUE(srv_->CloseSession(ref_id).ok());

  EXPECT_TRUE(client->Ping().ok());
  client->Close();
  EXPECT_FALSE(client->connected());
}

TEST_F(NetTest, SmallChunksStreamLosslessly) {
  // Force many ROWS chunks (2 rows per frame) and check nothing is lost or
  // reordered across chunk boundaries.
  net::NetServerConfig net_cfg;
  net_cfg.rows_per_chunk = 2;
  StartStack({}, {}, net_cfg);
  auto client = ConnectAuthed();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Execute("CREATE TABLE c (id BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 63; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ")";
  }
  ASSERT_TRUE(client->Execute("INSERT INTO c VALUES " + values).ok());
  auto out = client->Execute("SELECT id FROM c; SELECT COUNT(id) FROM c");
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  ASSERT_EQ(out.result_sets.size(), 2u);
  ASSERT_EQ(out.result_sets.at(0).rows.size(), 63u);
  for (int i = 0; i < 63; ++i) {
    EXPECT_EQ(out.result_sets.at(0).rows.at(i).at(0).AsInt().value(), i);
  }
  EXPECT_EQ(out.result_sets.at(1).rows.at(0).at(0).AsInt().value(), 63);
}

TEST_F(NetTest, AuthFailureAndLockoutOverTheWire) {
  net::AuthConfig auth_cfg;
  auth_cfg.max_failures = 2;
  auth_cfg.lockout_ms = 30'000;  // long enough to observe deterministically
  StartStack({}, auth_cfg);

  auto c = client::NetClient::Connect("127.0.0.1", net_->port());
  ASSERT_TRUE(c.ok());
  Status bad = (*c)->Authenticate("alice", "wrong");
  EXPECT_EQ(bad.code(), StatusCode::kPermissionDenied);
  EXPECT_LT((*c)->session_id(), 0);
  // The connection survives a failed attempt; a correct retry succeeds.
  EXPECT_TRUE((*c)->Authenticate("alice", "s3cret").ok());

  // Two more failures from a fresh connection trip the lockout; the typed
  // ERROR carries kPermissionDenied plus a retry-after hint.
  auto c2 = client::NetClient::Connect("127.0.0.1", net_->port());
  ASSERT_TRUE(c2.ok());
  EXPECT_FALSE((*c2)->Authenticate("alice", "nope").ok());
  Status locked = (*c2)->Authenticate("alice", "nope");
  EXPECT_EQ(locked.code(), StatusCode::kPermissionDenied);
  EXPECT_GT(locked.retry_after_ms(), 0);
  Status still = (*c2)->Authenticate("alice", "s3cret");
  EXPECT_EQ(still.code(), StatusCode::kPermissionDenied);
  EXPECT_GT(still.retry_after_ms(), 0);
}

TEST_F(NetTest, PerUserSessionLimitOverTheWire) {
  net::AuthConfig auth_cfg;
  auth_cfg.max_sessions_per_user = 1;
  StartStack({}, auth_cfg);
  auto first = ConnectAuthed();
  ASSERT_NE(first, nullptr);
  auto c2 = client::NetClient::Connect("127.0.0.1", net_->port());
  ASSERT_TRUE(c2.ok());
  Status over = (*c2)->Authenticate("alice", "s3cret");
  EXPECT_EQ(over.code(), StatusCode::kResourceExhausted);
  // Releasing the first connection frees the slot.
  first->Close();
  for (int i = 0; i < 100; ++i) {
    if ((*c2)->Authenticate("alice", "s3cret").ok()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE((*c2)->session_id(), 0);
}

TEST_F(NetTest, ConcurrentConnectionsAreDeterministic) {
  StartStack();
  {
    auto setup = ConnectAuthed();
    ASSERT_NE(setup, nullptr);
    ASSERT_TRUE(setup->Execute("CREATE TABLE d (id BIGINT, v BIGINT)").ok());
    std::string values;
    for (int i = 0; i < 400; ++i) {
      if (i > 0) values += ", ";
      values += "(" + std::to_string(i) + ", " + std::to_string(i * i) + ")";
    }
    ASSERT_TRUE(setup->Execute("INSERT INTO d VALUES " + values).ok());
  }
  const std::string q = "SELECT id, v FROM d WHERE v % 5 = 1";
  int64_t ref_id = srv_->OpenSession();
  auto ref = srv_->Execute(ref_id, q);
  ASSERT_TRUE(ref.ok());
  const std::string want = Fingerprint(ref.result_sets.at(0));
  ASSERT_TRUE(srv_->CloseSession(ref_id).ok());

  constexpr int kClients = 6;
  constexpr int kReps = 4;
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      auto c = client::NetClient::Connect("127.0.0.1", net_->port());
      if (!c.ok() || !(*c)->Authenticate("alice", "s3cret").ok()) {
        ++failures;
        return;
      }
      for (int rep = 0; rep < kReps; ++rep) {
        auto out = (*c)->Execute(q);
        if (!out.ok()) {
          ++failures;
          return;
        }
        if (Fingerprint(out.result_sets.at(0)) != want) ++mismatches;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(NetTest, OverloadRejectionIsTypedErrorWithRetryAfter) {
  server::ServerConfig cfg;
  cfg.admission.max_concurrent = 1;
  cfg.admission.max_queue = 1;
  StartStack(cfg);
  {
    auto setup = ConnectAuthed();
    ASSERT_NE(setup, nullptr);
    ASSERT_TRUE(setup->Execute("CREATE TABLE o (id BIGINT, v BIGINT)").ok());
    std::string values;
    for (int i = 0; i < 60; ++i) {
      if (i > 0) values += ", ";
      values += "(" + std::to_string(i) + ", 1)";
    }
    ASSERT_TRUE(setup->Execute("INSERT INTO o VALUES " + values).ok());
  }
  std::atomic<int> rejected{0}, succeeded{0}, other{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      auto c = client::NetClient::Connect("127.0.0.1", net_->port());
      if (!c.ok() || !(*c)->Authenticate("alice", "s3cret").ok()) {
        ++other;
        return;
      }
      auto r = (*c)->Execute("SELECT SUM(Test.Slow(v)) FROM o");
      if (r.ok()) {
        ++succeeded;
      } else if (r.status.code() == StatusCode::kResourceExhausted) {
        // The rejection crossed the wire as a typed ERROR frame: frozen
        // numeric code plus the admission controller's retry-after hint.
        EXPECT_GT(r.retry_after_ms, 0);
        EXPECT_EQ(r.error_code,
                  StatusCodeToWire(StatusCode::kResourceExhausted));
        ++rejected;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(other.load(), 0);
  EXPECT_GE(succeeded.load(), 1);
  EXPECT_GE(rejected.load(), 1);
}

TEST_F(NetTest, CancelKillsInFlightStatement) {
  StartStack();
  auto client = ConnectAuthed();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(client->Execute("CREATE TABLE k (id BIGINT, v BIGINT)").ok());
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    if (i > 0) values += ", ";
    values += "(" + std::to_string(i) + ", 1)";
  }
  ASSERT_TRUE(client->Execute("INSERT INTO k VALUES " + values).ok());

  std::atomic<int> code{-1};
  std::thread runner([&] {
    auto r = client->Execute("SELECT SUM(Test.Slow(v)) FROM k");
    code.store(r.ok() ? 0 : static_cast<int>(r.status.code()));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_TRUE(client->Cancel().ok());
  runner.join();
  EXPECT_EQ(code.load(), static_cast<int>(StatusCode::kCancelled));

  // The connection and session survive the kill.
  auto rs = client->Execute("SELECT COUNT(id) FROM k");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.result_sets.at(0).rows.at(0).at(0).AsInt().value(), 2000);
}

TEST_F(NetTest, DisconnectMidQueryKillsAndRollsBack) {
  StartStack();
  {
    auto setup = ConnectAuthed();
    ASSERT_NE(setup, nullptr);
    ASSERT_TRUE(setup->Execute("CREATE TABLE w (id BIGINT, v BIGINT)").ok());
    std::string values;
    for (int i = 0; i < 2000; ++i) {
      if (i > 0) values += ", ";
      values += "(" + std::to_string(i) + ", 1)";
    }
    ASSERT_TRUE(setup->Execute("INSERT INTO w VALUES " + values).ok());
  }

  // Raw handshake so we can vanish without a GOODBYE: HELLO, AUTH, then a
  // slow destructive statement inside an explicit transaction.
  int fd = RawConnect();
  {
    net::PayloadWriter hello;
    hello.PutU32(net::kProtocolVersion);
    hello.PutString("rude-client");
    ASSERT_TRUE(net::WriteFrame(fd, net::FrameType::kHello, hello.buffer())
                    .ok());
    auto reply = net::ReadFrame(fd);
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply->type, net::FrameType::kHello);
    net::PayloadWriter creds;
    creds.PutString("alice");
    creds.PutString("s3cret");
    ASSERT_TRUE(
        net::WriteFrame(fd, net::FrameType::kAuth, creds.buffer()).ok());
    auto authed = net::ReadFrame(fd);
    ASSERT_TRUE(authed.ok());
    ASSERT_EQ(authed->type, net::FrameType::kAuth);
    net::PayloadWriter q;
    q.PutString("BEGIN; DELETE FROM w WHERE Test.Slow(id) >= 0");
    ASSERT_TRUE(net::WriteFrame(fd, net::FrameType::kQuery, q.buffer()).ok());
  }
  // Let the statement start deleting, then drop the connection cold.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  ASSERT_EQ(srv_->open_sessions(), 1);
  ::close(fd);

  // The disconnect fires KillQuery; the kill unwinds the open transaction
  // via WAL rollback and teardown closes the session.
  for (int i = 0; i < 400 && srv_->open_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv_->open_sessions(), 0);
  EXPECT_EQ(auth_->active_sessions("alice"), 0);

  sql::Session check(&executor_);
  auto rs = check.Execute("SELECT COUNT(id) FROM w");
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().at(0).rows.at(0).at(0).AsInt().value(), 2000)
      << "aborted DELETE must leave no partial effects";
}

TEST_F(NetTest, DisconnectInsideTransactionReleasesItsClaims) {
  StartStack();
  {
    auto setup = ConnectAuthed();
    ASSERT_NE(setup, nullptr);
    ASSERT_TRUE(setup->Execute("CREATE TABLE t (id BIGINT, v BIGINT)").ok());
  }
  // BEGIN and an INSERT, then the client goes away between statements:
  // no statement runs, so teardown fires no kill, and closing the session
  // must roll the transaction back.
  {
    auto client = ConnectAuthed();
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(
        client->Execute("BEGIN TRANSACTION; INSERT INTO t VALUES (100, 1)")
            .ok());
    client->Close();
  }
  for (int i = 0; i < 400 && srv_->open_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(srv_->open_sessions(), 0);

  // The session leaves the server's map before it is destroyed, so the
  // rollback may trail open_sessions() by a moment: retry a conflict
  // briefly. A leaked transaction conflicts for good.
  auto other = ConnectAuthed();
  ASSERT_NE(other, nullptr);
  Status st;
  for (int i = 0; i < 200; ++i) {
    st = other->Execute("INSERT INTO t VALUES (100, 2)").status;
    if (st.code() != StatusCode::kWriteConflict) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto rs = other->Execute("SELECT v FROM t WHERE id = 100");
  ASSERT_TRUE(rs.ok()) << rs.status.ToString();
  EXPECT_EQ(rs.result_sets.at(0).rows.at(0).at(0).AsInt().value(), 2);
}

TEST_F(NetTest, ReplyLargerThanTheSocketBuffersArrivesIntact) {
  // One row of an 8 MB max array: one ROWS frame, twice loopback's largest
  // send buffer.
  StartStack();
  auto client = ConnectAuthed();
  ASSERT_NE(client, nullptr);
  const std::string q = "SELECT FloatArrayMax.Create(1048576)";
  int64_t ref_id = srv_->OpenSession();
  auto ref = srv_->Execute(ref_id, q);
  ASSERT_TRUE(ref.ok()) << ref.status.ToString();
  EXPECT_TRUE(srv_->CloseSession(ref_id).ok());
  const int64_t frames_before =
      obs::MetricsRegistry::Global().GetCounter("net.frames_sent")->value();
  auto out = client->Execute(q);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_EQ(
      obs::MetricsRegistry::Global().GetCounter("net.frames_sent")->value() -
          frames_before,
      2);  // the QUERY and the one ROWS frame
  std::vector<uint8_t> want =
      ref.result_sets.at(0).rows.at(0).at(0).MaterializeBytes().value();
  std::vector<uint8_t> got =
      out.result_sets.at(0).rows.at(0).at(0).MaterializeBytes().value();
  EXPECT_GE(got.size(), 8u << 20);
  EXPECT_TRUE(got == want);
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(NetTest, MultiMegabyteInsertLiteralRoundTrips) {
  // A 2.5 MB blob written as a 5 MB hex literal: the QUERY frame outgrows
  // the client's send buffer and the server's receive buffer.
  StartStack();
  auto client = ConnectAuthed();
  ASSERT_NE(client, nullptr);
  ASSERT_TRUE(
      client->Execute("CREATE TABLE big (id BIGINT, b VARBINARY(MAX))").ok());
  const std::vector<uint8_t> blob = PatternBytes(5u << 19);
  static const char kHex[] = "0123456789abcdef";
  std::string sql = "INSERT INTO big VALUES (1, 0x";
  sql.reserve(sql.size() + 2 * blob.size() + 2);
  for (uint8_t b : blob) {
    sql.push_back(kHex[b >> 4]);
    sql.push_back(kHex[b & 15]);
  }
  sql += ")";
  ASSERT_GT(sql.size(), 4u << 20);
  auto ins = client->Execute(sql);
  ASSERT_TRUE(ins.ok()) << ins.status.ToString();
  auto out = client->Execute("SELECT b FROM big WHERE id = 1");
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  std::vector<uint8_t> got =
      out.result_sets.at(0).rows.at(0).at(0).MaterializeBytes().value();
  EXPECT_TRUE(got == blob);
}

TEST_F(NetTest, PingDuringAStatementIsEchoedBeforeItsReply) {
  StartStack();
  CreateOnes("p", 200);
  int fd = RawAuthed();
  ASSERT_TRUE(SendQuery(fd, "SELECT SUM(Test.Slow(v)) FROM p").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const std::vector<uint8_t> probe = {'h', 'i'};
  ASSERT_TRUE(net::WriteFrame(fd, net::FrameType::kPing, probe).ok());
  auto echo = net::ReadFrame(fd);
  ASSERT_TRUE(echo.ok()) << echo.status().ToString();
  EXPECT_EQ(echo->type, net::FrameType::kPing);
  EXPECT_EQ(echo->payload, probe);
  auto sum = ReadReply(fd);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->AsInt().value(), 200);
  ::close(fd);
}

TEST_F(NetTest, GoodbyeDuringAStatementKillsItAndIsAcked) {
  StartStack();
  CreateOnes("g", 2000);
  int fd = RawAuthed();
  // About two seconds of deleting, unless something kills it.
  ASSERT_TRUE(
      SendQuery(fd, "BEGIN; DELETE FROM g WHERE Test.Slow(id) >= 0").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(net::WriteFrame(fd, net::FrameType::kGoodbye, {}).ok());
  // The killed statement's ERROR, then the ack.
  auto killed = ReadReply(fd);
  EXPECT_EQ(killed.status().code(), StatusCode::kCancelled);
  auto ack = net::ReadFrame(fd);
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack->type, net::FrameType::kGoodbye);
  EXPECT_LT(std::chrono::steady_clock::now() - sent, std::chrono::seconds(1));
  ::close(fd);
  for (int i = 0; i < 400 && srv_->open_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(srv_->open_sessions(), 0);
  EXPECT_EQ(auth_->active_sessions("alice"), 0);
  EXPECT_EQ(CountRows("g"), 2000) << "the BEGIN must roll back";
}

TEST_F(NetTest, PipelinedQueriesRunInOrderBehindASlowOne) {
  StartStack();
  CreateOnes("q", 100);
  int fd = RawAuthed();
  // Written back to back: the second and third wait in the socket.
  ASSERT_TRUE(SendQuery(fd, "SELECT SUM(Test.Slow(v)) FROM q").ok());
  ASSERT_TRUE(SendQuery(fd, "SELECT 1").ok());
  ASSERT_TRUE(SendQuery(fd, "SELECT 2").ok());
  for (int64_t want : {100, 1, 2}) {
    auto got = ReadReply(fd);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->AsInt().value(), want);
  }
  ::close(fd);
}

TEST_F(NetTest, ResultRowLargerThanAFrameIsATypedError) {
  // A 17.6 MB array cannot travel in one ROWS frame (16 MiB cap): the
  // statement ends with an ERROR instead of leaving the client waiting.
  StartStack();
  int fd = RawAuthed();
  ASSERT_TRUE(SendQuery(fd, "SELECT FloatArrayMax.Create(2200000)").ok());
  auto reply = ReadReply(fd);
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument)
      << reply.status().ToString();
  ASSERT_TRUE(SendQuery(fd, "SELECT 7").ok());
  auto next = ReadReply(fd);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->AsInt().value(), 7);
  ::close(fd);
}

TEST_F(NetTest, StopKillsARunningStatement) {
  StartStack();
  CreateOnes("s", 2000);
  auto client = ConnectAuthed();
  ASSERT_NE(client, nullptr);
  obs::Counter* kills = obs::MetricsRegistry::Global().GetCounter(
      "gov.cancelled");
  const int64_t kills_before = kills->value();
  server::StatementOutcome out;
  std::thread runner([&] {
    out = client->Execute("BEGIN; DELETE FROM s WHERE Test.Slow(id) >= 0");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  const auto start = std::chrono::steady_clock::now();
  net_->Stop();
  const auto took = std::chrono::steady_clock::now() - start;
  runner.join();
  // The statement had about two seconds left.
  EXPECT_LT(took, std::chrono::seconds(1));
  EXPECT_FALSE(out.ok());
  EXPECT_GE(kills->value() - kills_before, 1);
  EXPECT_EQ(srv_->open_sessions(), 0);
  EXPECT_EQ(CountRows("s"), 2000) << "the BEGIN must roll back";
}

/// VmSize of this process in kB, from /proc/self/status.
int64_t VmSizeKb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoll(line.substr(7));
  }
  return -1;
}

TEST_F(NetTest, ClosedConnectionsReleaseTheirThreads) {
  // A connection thread's stack stays mapped until the thread is joined,
  // about 8 MB of address space each: 512 MB over 64 connections if none
  // is joined. The bound leaves room for a few 64 MB malloc arenas, which
  // glibc adds when connection threads overlap.
  StartStack();
  auto cycle = [&] {
    auto c = ConnectAuthed();
    ASSERT_NE(c, nullptr);
    ASSERT_TRUE(c->Execute("SELECT 1").ok());
    c->Close();
  };
  for (int i = 0; i < 8; ++i) cycle();  // warm the allocator's arenas
  const int64_t before = VmSizeKb();
  ASSERT_GT(before, 0);
  for (int i = 0; i < 64; ++i) cycle();
  constexpr int64_t kBoundKb = 256 * 1024;
  int64_t grew = VmSizeKb() - before;
  // The watcher joins a closed connection's thread within a tick or two.
  for (int i = 0; i < 100 && grew >= kBoundKb; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    grew = VmSizeKb() - before;
  }
  EXPECT_LT(grew, kBoundKb);
}

// ---------------------------------------------------------------------------
// Protocol abuse: the server replies with a typed ERROR (or just drops the
// connection) and keeps serving well-formed clients afterwards.
// ---------------------------------------------------------------------------

class NetFuzzTest : public NetTest {
 protected:
  /// Asserts the server still answers a clean client end to end.
  void ExpectServerAlive() {
    auto c = ConnectAuthed();
    ASSERT_NE(c, nullptr);
    auto out = c->Execute("SELECT 1 + 2");
    ASSERT_TRUE(out.ok()) << out.status.ToString();
    EXPECT_EQ(out.result_sets.at(0).rows.at(0).at(0).AsInt().value(), 3);
  }

  /// Reads one frame and expects a typed ERROR with the given code.
  void ExpectErrorReply(int fd, StatusCode code) {
    auto frame = net::ReadFrame(fd);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->type, net::FrameType::kError);
    Status st = net::DecodeError(frame->payload);
    EXPECT_EQ(st.code(), code);
  }

  /// Hand-builds a 16-byte header (little-endian fields) + payload.
  static std::vector<uint8_t> RawFrame(uint32_t magic, uint8_t version,
                                       uint8_t type, uint16_t flags,
                                       uint32_t len, uint32_t crc,
                                       std::vector<uint8_t> payload = {}) {
    std::vector<uint8_t> out(16 + payload.size());
    auto put32 = [&](size_t at, uint32_t v) {
      out[at] = v & 0xFF;
      out[at + 1] = (v >> 8) & 0xFF;
      out[at + 2] = (v >> 16) & 0xFF;
      out[at + 3] = (v >> 24) & 0xFF;
    };
    put32(0, magic);
    out[4] = version;
    out[5] = type;
    out[6] = flags & 0xFF;
    out[7] = flags >> 8;
    put32(8, len);
    put32(12, crc);
    std::copy(payload.begin(), payload.end(), out.begin() + 16);
    return out;
  }
};

TEST_F(NetFuzzTest, GarbageBytesGetTypedErrorAndServerSurvives) {
  StartStack();
  int fd = RawConnect();
  const char garbage[] = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
  ExpectErrorReply(fd, StatusCode::kInvalidArgument);
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(NetFuzzTest, OversizedFrameIsRejectedBeforeAllocation) {
  StartStack();
  int fd = RawConnect();
  // Claims a 256 MiB payload — over the 16 MiB cap; rejected on the header
  // alone, no payload needed.
  auto raw = RawFrame(net::kFrameMagic, net::kProtocolVersion,
                      static_cast<uint8_t>(net::FrameType::kQuery), 0,
                      256u * 1024 * 1024, 0);
  ASSERT_GT(::send(fd, raw.data(), raw.size(), 0), 0);
  ExpectErrorReply(fd, StatusCode::kInvalidArgument);
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(NetFuzzTest, WrongVersionUnknownTypeAndFlagsAreRejected) {
  StartStack();
  struct Case {
    uint8_t version;
    uint8_t type;
    uint16_t flags;
  } cases[] = {
      {99, static_cast<uint8_t>(net::FrameType::kHello), 0},  // bad version
      {net::kProtocolVersion, 200, 0},                        // unknown type
      {net::kProtocolVersion, static_cast<uint8_t>(net::FrameType::kHello),
       0xBEEF},  // reserved flags set
  };
  for (const Case& c : cases) {
    int fd = RawConnect();
    auto raw = RawFrame(net::kFrameMagic, c.version, c.type, c.flags, 0, 0);
    ASSERT_GT(::send(fd, raw.data(), raw.size(), 0), 0);
    ExpectErrorReply(fd, StatusCode::kInvalidArgument);
    ::close(fd);
  }
  ExpectServerAlive();
}

TEST_F(NetFuzzTest, CorruptPayloadCrcIsCorruption) {
  StartStack();
  int fd = RawConnect();
  std::vector<uint8_t> payload = {'h', 'i'};
  auto raw = RawFrame(net::kFrameMagic, net::kProtocolVersion,
                      static_cast<uint8_t>(net::FrameType::kHello), 0,
                      static_cast<uint32_t>(payload.size()),
                      0xBADC0DEu,  // wrong CRC for "hi"
                      payload);
  ASSERT_GT(::send(fd, raw.data(), raw.size(), 0), 0);
  ExpectErrorReply(fd, StatusCode::kCorruption);
  ::close(fd);
  ExpectServerAlive();
}

TEST_F(NetFuzzTest, TruncatedFrameDropsConnectionQuietly) {
  StartStack();
  int fd = RawConnect();
  // A valid header promising 100 payload bytes, then hang up after 3.
  std::vector<uint8_t> payload = {1, 2, 3};
  auto raw = RawFrame(net::kFrameMagic, net::kProtocolVersion,
                      static_cast<uint8_t>(net::FrameType::kHello), 0, 100, 0,
                      payload);
  ASSERT_GT(::send(fd, raw.data(), raw.size(), 0), 0);
  ::close(fd);
  // Nothing to assert on this socket — the point is the server must not
  // crash, leak the handler, or wedge the listener.
  ExpectServerAlive();
}

TEST_F(NetFuzzTest, QueryBeforeAuthIsRefused) {
  StartStack();
  int fd = RawConnect();
  net::PayloadWriter hello;
  hello.PutU32(net::kProtocolVersion);
  hello.PutString("eager");
  ASSERT_TRUE(
      net::WriteFrame(fd, net::FrameType::kHello, hello.buffer()).ok());
  auto reply = net::ReadFrame(fd);
  ASSERT_TRUE(reply.ok());
  // Skip AUTH and go straight to QUERY: refused with a typed ERROR.
  net::PayloadWriter q;
  q.PutString("SELECT 1");
  ASSERT_TRUE(net::WriteFrame(fd, net::FrameType::kQuery, q.buffer()).ok());
  ExpectErrorReply(fd, StatusCode::kPermissionDenied);
  ::close(fd);
  ExpectServerAlive();
}

// ---------------------------------------------------------------------------
// ArrayServer API redesign details that back the wire behavior
// ---------------------------------------------------------------------------

TEST_F(NetTest, CloseSessionIsIdempotent) {
  StartStack();
  int64_t id = srv_->OpenSession();
  EXPECT_TRUE(srv_->CloseSession(id).ok());
  EXPECT_TRUE(srv_->CloseSession(id).ok());    // second close: still OK
  EXPECT_TRUE(srv_->CloseSession(9999).ok());  // never existed: still OK
}

TEST_F(NetTest, StatementOutcomeCarriesWireCode) {
  StartStack();
  int64_t id = srv_->OpenSession();
  auto bad = srv_->Execute(id, "SELEC nonsense");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error_code, StatusCodeToWire(bad.status.code()));
  auto gone = srv_->Execute(9999, "SELECT 1");
  EXPECT_EQ(gone.status.code(), StatusCode::kNotFound);
  EXPECT_EQ(gone.error_code, StatusCodeToWire(StatusCode::kNotFound));
  EXPECT_TRUE(srv_->CloseSession(id).ok());
}

}  // namespace
}  // namespace sqlarray
