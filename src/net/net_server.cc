#include "net/net_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sqlarray::net {

namespace {

struct ServerCounters {
  obs::Counter* accepted;
  obs::Counter* rejected;
  obs::Counter* closed;
  obs::Counter* queries;
  obs::Counter* cancels;
  obs::Counter* errors_sent;
  obs::Counter* disconnect_kills;
  obs::Gauge* open;

  static ServerCounters& Get() {
    static ServerCounters c = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return ServerCounters{reg.GetCounter("net.connections_accepted"),
                            reg.GetCounter("net.connections_rejected"),
                            reg.GetCounter("net.connections_closed"),
                            reg.GetCounter("net.queries"),
                            reg.GetCounter("net.cancels"),
                            reg.GetCounter("net.errors_sent"),
                            reg.GetCounter("net.disconnect_kills"),
                            reg.GetGauge("net.connections_open")};
    }();
    return c;
  }
};

}  // namespace

NetServer::NetServer(server::ArrayServer* server, AuthManager* auth,
                     NetServerConfig config)
    : server_(server), auth_(auth), config_(std::move(config)) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("net: server already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("net: socket failed: ") +
                            std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("net: bad bind address '" +
                                   config_.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::Internal(std::string("net: bind failed: ") +
                            std::strerror(errno));
  }
  if (::listen(fd, 64) != 0) {
    ::close(fd);
    return Status::Internal(std::string("net: listen failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    ::close(fd);
    return Status::Internal(std::string("net: getsockname failed: ") +
                            std::strerror(errno));
  }
  bound_port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void NetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept() by closing the listener.
  int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Unblock every handler's blocking recv; the handlers then run their own
  // teardown (kill in-flight statement, close session, close socket).
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, c] : connections_) conns.push_back(c);
  }
  for (auto& c : conns) {
    std::lock_guard<std::mutex> lock(c->write_mu);
    if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  }
  std::map<uint64_t, std::thread> handlers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers = std::move(handler_threads_);
    handler_threads_.clear();
  }
  for (auto& [id, t] : handlers) {
    if (t.joinable()) t.join();
  }
}

int NetServer::open_connections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(connections_.size());
}

void NetServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int lfd = listen_fd_.load(std::memory_order_acquire);
    if (lfd < 0) break;  // retired by Stop()
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by Stop()
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(connections_.size()) >= config_.max_connections) {
        ServerCounters::Get().rejected->Add(1);
        std::vector<uint8_t> payload = EncodeError(Status::ResourceExhausted(
            "server connection limit reached", /*retry_after_ms=*/50));
        (void)WriteFrame(fd, FrameType::kError, payload);
        ::close(fd);
        continue;
      }
      id = next_conn_id_++;
      connections_.emplace(id, conn);
    }
    ServerCounters::Get().accepted->Add(1);
    ServerCounters::Get().open->Set(open_connections());
    std::thread handler([this, id, conn] {
      HandleConnection(conn);
      {
        std::lock_guard<std::mutex> lock(mu_);
        connections_.erase(id);
      }
      ServerCounters::Get().closed->Add(1);
      ServerCounters::Get().open->Set(open_connections());
    });
    {
      std::lock_guard<std::mutex> lock(mu_);
      handler_threads_.emplace(id, std::move(handler));
    }
  }
}

void NetServer::HandleConnection(std::shared_ptr<Connection> conn) {
  if (Handshake(conn.get())) {
    while (running_.load(std::memory_order_acquire)) {
      Result<Frame> frame = ReadFrame(conn->fd, config_.max_frame_payload);
      if (!frame.ok()) {
        if (frame.status().code() != StatusCode::kNotFound) {
          // Malformed traffic (bad magic, oversized length, CRC damage):
          // answer with a typed ERROR so a confused-but-honest client
          // learns why, then drop the connection. The server survives.
          SendError(conn.get(), frame.status());
        } else if (conn->query_running.load(std::memory_order_acquire)) {
          // Disconnect with a statement in flight: the client is gone, so
          // nobody will consume the result. Kill it; the cooperative
          // cancellation unwinds the statement and the WAL rolls back any
          // open transaction.
          ServerCounters::Get().disconnect_kills->Add(1);
          (void)server_->KillQuery(conn->session_id);
        }
        break;
      }
      switch (frame->type) {
        case FrameType::kQuery: {
          PayloadReader r(frame->payload);
          Result<std::string> sql = r.GetString();
          if (!sql.ok()) {
            SendError(conn.get(), sql.status());
            break;
          }
          if (conn->query_running.load(std::memory_order_acquire)) {
            SendError(conn.get(),
                      Status::InvalidArgument(
                          "a statement is already in flight on this "
                          "connection"));
            break;
          }
          ServerCounters::Get().queries->Add(1);
          conn->query_running.store(true, std::memory_order_release);
          SubmitStatement(conn.get(), std::move(sql).value());
          break;
        }
        case FrameType::kCancel:
          ServerCounters::Get().cancels->Add(1);
          (void)server_->KillQuery(conn->session_id);
          break;
        case FrameType::kPing: {
          std::lock_guard<std::mutex> lock(conn->write_mu);
          if (conn->fd >= 0) {
            (void)WriteFrame(conn->fd, FrameType::kPing, frame->payload);
          }
          break;
        }
        case FrameType::kGoodbye: {
          {
            std::lock_guard<std::mutex> lock(conn->write_mu);
            if (conn->fd >= 0) {
              (void)WriteFrame(conn->fd, FrameType::kGoodbye, {});
            }
          }
          TeardownConnection(conn.get());
          return;
        }
        default:
          SendError(conn.get(),
                    Status::InvalidArgument("unexpected frame type after "
                                            "handshake"));
          break;
      }
    }
  }
  TeardownConnection(conn.get());
}

bool NetServer::Handshake(Connection* conn) {
  // HELLO first: anything else is a stray peer speaking the wrong
  // protocol, told so via a typed ERROR.
  Result<Frame> hello = ReadFrame(conn->fd, config_.max_frame_payload);
  if (!hello.ok()) {
    if (hello.status().code() != StatusCode::kNotFound) {
      SendError(conn, hello.status());
    }
    return false;
  }
  if (hello->type != FrameType::kHello) {
    SendError(conn, Status::InvalidArgument("expected HELLO"));
    return false;
  }
  {
    PayloadReader r(hello->payload);
    Result<uint32_t> version = r.GetU32();
    if (!version.ok() || version.value() != kProtocolVersion) {
      SendError(conn,
                Status::InvalidArgument("unsupported protocol version"));
      return false;
    }
    // Client name (ignored beyond validation; future: per-client obs).
    if (!r.GetString().ok()) {
      SendError(conn, Status::InvalidArgument("malformed HELLO"));
      return false;
    }
  }
  {
    PayloadWriter w;
    w.PutU32(kProtocolVersion);
    w.PutString("sqlarray");
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (!WriteFrame(conn->fd, FrameType::kHello, w.buffer()).ok()) {
      return false;
    }
  }

  // AUTH attempts until success, disconnect, or protocol abuse. The
  // AuthManager's lockout bounds guessing; the session-limit check happens
  // before the ArrayServer ever sees the user.
  while (running_.load(std::memory_order_acquire)) {
    Result<Frame> frame = ReadFrame(conn->fd, config_.max_frame_payload);
    if (!frame.ok()) {
      if (frame.status().code() != StatusCode::kNotFound) {
        SendError(conn, frame.status());
      }
      return false;
    }
    if (frame->type == FrameType::kPing) {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (conn->fd >= 0) {
        (void)WriteFrame(conn->fd, FrameType::kPing, frame->payload);
      }
      continue;
    }
    if (frame->type == FrameType::kGoodbye) {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      if (conn->fd >= 0) (void)WriteFrame(conn->fd, FrameType::kGoodbye, {});
      return false;
    }
    if (frame->type != FrameType::kAuth) {
      SendError(conn, Status::PermissionDenied(
                          "authenticate before issuing statements"));
      return false;
    }
    PayloadReader r(frame->payload);
    Result<std::string> user = r.GetString();
    Result<std::string> password = user.ok() ? r.GetString() : user;
    if (!user.ok() || !password.ok()) {
      SendError(conn, Status::InvalidArgument("malformed AUTH"));
      return false;
    }
    Status auth = auth_->Authenticate(user.value(), password.value());
    if (!auth.ok()) {
      SendError(conn, auth);
      continue;  // the client may retry with better credentials
    }
    Status lease = auth_->AcquireSession(user.value());
    if (!lease.ok()) {
      // Transient (another connection holds the slot): the ERROR carries a
      // retry-after hint, so let the client retry on this connection.
      SendError(conn, lease);
      continue;
    }
    conn->user = user.value();
    conn->session_id = server_->OpenSession();
    PayloadWriter w;
    w.PutU64(static_cast<uint64_t>(conn->session_id));
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->fd < 0 ||
        !WriteFrame(conn->fd, FrameType::kAuth, w.buffer()).ok()) {
      return false;
    }
    return true;
  }
  return false;
}

void NetServer::SubmitStatement(Connection* conn, std::string sql) {
  {
    std::lock_guard<std::mutex> lock(conn->worker_mu);
    conn->next = std::move(sql);
  }
  conn->worker_cv.notify_one();
  // Only the handler thread starts and joins the worker.
  if (!conn->worker.joinable()) {
    conn->worker = std::thread([this, conn] { StatementLoop(conn); });
  }
}

void NetServer::StatementLoop(Connection* conn) {
  std::unique_lock<std::mutex> lock(conn->worker_mu);
  for (;;) {
    conn->worker_cv.wait(
        lock, [conn] { return conn->stopping || conn->next.has_value(); });
    // A statement still in the slot at teardown never started: drop it.
    if (conn->stopping) return;
    std::string sql = std::move(*conn->next);
    conn->next.reset();
    lock.unlock();
    RunStatement(conn, std::move(sql));
    lock.lock();
  }
}

void NetServer::RunStatement(Connection* conn, std::string sql) {
  server::StatementOutcome outcome = server_->Execute(conn->session_id, sql);
  // query_running flips false under the write lock, before the statement's
  // final frame (ERROR or the done-trailer ROWS chunk) hits the socket: the
  // client may legally send its next QUERY the instant it sees that frame,
  // and the handler thread must not read the stale "busy" flag.
  if (!outcome.ok()) {
    ServerCounters::Get().errors_sent->Add(1);
    std::vector<uint8_t> payload = EncodeError(outcome.status);
    std::lock_guard<std::mutex> lock(conn->write_mu);
    conn->query_running.store(false, std::memory_order_release);
    if (conn->fd >= 0) {
      (void)WriteFrame(conn->fd, FrameType::kError, payload);
    }
  } else if (!StreamOutcome(conn, outcome).ok()) {
    // The client vanished mid-stream (the handler thread notices the
    // disconnect and tears the connection down), or a value did not encode.
    // Either way no final frame went out, so nothing cleared the flag. On
    // success the final frame's send cleared it, and the client may already
    // have sent its next statement, so it must not be touched again.
    conn->query_running.store(false, std::memory_order_release);
  }
}

Status NetServer::StreamOutcome(Connection* conn,
                                const server::StatementOutcome& outcome) {
  const auto& sets = outcome.result_sets;
  auto send = [&](const std::vector<uint8_t>& payload,
                  bool statement_done) -> Status {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (statement_done) {
      conn->query_running.store(false, std::memory_order_release);
    }
    if (conn->fd < 0) return Status::Internal("net: connection closed");
    return WriteFrame(conn->fd, FrameType::kRows, payload);
  };

  if (sets.empty()) {
    // DDL/DML batches produce no result sets but still need a terminator.
    PayloadWriter w;
    w.PutU32(kRowsStatementDone);
    w.PutU32(kNoResultSet);
    w.PutU32(0);   // no rows in this chunk
    w.PutBytes({});  // empty row payload
    w.PutU32(0);   // statement produced zero result sets
    AppendStatsTrailer(&w, outcome.stats);
    return send(w.buffer(), /*statement_done=*/true);
  }

  for (size_t ri = 0; ri < sets.size(); ++ri) {
    const engine::ResultSet& rs = sets[ri];
    size_t row = 0;
    bool first_chunk = true;
    do {
      // Serialize up to rows_per_chunk rows, stopping early past the soft
      // byte budget so one chunk of wide rows cannot balloon.
      PayloadWriter rows;
      uint32_t nrows = 0;
      while (row < rs.rows.size() &&
             nrows < static_cast<uint32_t>(config_.rows_per_chunk) &&
             rows.size() < static_cast<size_t>(config_.chunk_soft_bytes)) {
        for (const engine::Value& v : rs.rows[row]) {
          SQLARRAY_RETURN_IF_ERROR(AppendValue(&rows, v));
        }
        ++row;
        ++nrows;
      }
      const bool last_chunk = row == rs.rows.size();
      const bool statement_done = last_chunk && ri + 1 == sets.size();
      uint32_t flags = 0;
      if (first_chunk) flags |= kRowsFirstChunk;
      if (last_chunk) flags |= kRowsLastChunk;
      if (statement_done) flags |= kRowsStatementDone;

      PayloadWriter w;
      w.PutU32(flags);
      w.PutU32(static_cast<uint32_t>(ri));
      if (first_chunk) {
        w.PutU32(static_cast<uint32_t>(rs.columns.size()));
        for (const std::string& c : rs.columns) w.PutString(c);
      }
      w.PutU32(nrows);
      const std::vector<uint8_t>& encoded = rows.buffer();
      w.PutBytes(encoded);
      if (statement_done) {
        w.PutU32(static_cast<uint32_t>(sets.size()));
        AppendStatsTrailer(&w, outcome.stats);
      }
      SQLARRAY_RETURN_IF_ERROR(send(w.buffer(), statement_done));
      first_chunk = false;
    } while (row < rs.rows.size());
  }
  return Status::OK();
}

void NetServer::SendError(Connection* conn, const Status& st) {
  ServerCounters::Get().errors_sent->Add(1);
  std::vector<uint8_t> payload = EncodeError(st);
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->fd >= 0) {
    (void)WriteFrame(conn->fd, FrameType::kError, payload);
  }
}

void NetServer::TeardownConnection(Connection* conn) {
  if (conn->query_running.load(std::memory_order_acquire)) {
    (void)server_->KillQuery(conn->session_id);
  }
  {
    std::lock_guard<std::mutex> lock(conn->worker_mu);
    conn->stopping = true;
  }
  conn->worker_cv.notify_one();
  if (conn->worker.joinable()) conn->worker.join();
  if (conn->session_id >= 0) {
    // Idempotent: a GOODBYE teardown racing a disconnect teardown may pass
    // through here twice.
    (void)server_->CloseSession(conn->session_id);
    conn->session_id = -1;
    auth_->ReleaseSession(conn->user);
    conn->user.clear();
  }
  std::lock_guard<std::mutex> lock(conn->write_mu);
  if (conn->fd >= 0) {
    ::close(conn->fd);
    conn->fd = -1;
  }
}

}  // namespace sqlarray::net
