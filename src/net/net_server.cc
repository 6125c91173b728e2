#include "net/net_server.h"

#include <arpa/inet.h>
#include <linux/sockios.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
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

/// The watcher's period, at most ArrayServer's default watchdog interval.
constexpr std::chrono::milliseconds kWatchTick{1};

/// The frames the watcher takes out of the socket during a statement:
/// CANCEL, GOODBYE, and a PING whose echo cannot block the watcher, a
/// small one onto an empty send queue. A QUERY, and any frame the query
/// loop answers with an ERROR, stay in the socket.
bool WatcherTakes(int fd, const FrameHeader& header) {
  constexpr uint32_t kMaxEchoPayload = 1024;
  switch (header.type) {
    case FrameType::kCancel:
    case FrameType::kGoodbye:
      return true;
    case FrameType::kPing: {
      int queued = 0;
      return header.payload_len <= kMaxEchoPayload &&
             ::ioctl(fd, SIOCOUTQ, &queued) == 0 && queued == 0;
    }
    default:
      return false;
  }
}

}  // namespace

NetServer::Connection::~Connection() { ::close(fd); }

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
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  watcher_ = std::thread([this] { WatchLoop(); });
  return Status::OK();
}

void NetServer::Stop() {
  // Sequentially consistent with RunStatement's check: either a statement
  // about to start sees the server stopping, or the kill below sees it.
  if (!running_.exchange(false)) return;
  // Unblock accept() by closing the listener.
  int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    ::shutdown(lfd, SHUT_RDWR);
    ::close(lfd);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (watcher_.joinable()) watcher_.join();

  // A connection thread inside ArrayServer::Execute reads nothing until its
  // statement ends, so kill every running statement here; shutting each
  // socket down then unblocks the threads waiting for a frame, and each
  // tears its connection down.
  std::vector<std::shared_ptr<Connection>> conns;
  std::map<uint64_t, std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, c] : connections_) conns.push_back(c);
    threads = std::move(threads_);
    threads_.clear();
  }
  for (auto& c : conns) {
    if (c->statement_running.load()) {
      (void)server_->KillQuery(c->session_id.load());
    }
    ::shutdown(c->fd, SHUT_RDWR);
  }
  for (auto& [id, t] : threads) t.join();
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
      auto conn = std::make_shared<Connection>(fd);
      uint64_t id = next_conn_id_++;
      connections_.emplace(id, conn);
      // Started under mu_: the watcher joins a thread once its connection
      // has left connections_, so the thread must be in threads_ by then.
      threads_.emplace(id, std::thread([this, id, conn] {
                         HandleConnection(conn.get());
                         {
                           std::lock_guard<std::mutex> lock(mu_);
                           connections_.erase(id);
                         }
                         ServerCounters::Get().closed->Add(1);
                         ServerCounters::Get().open->Set(open_connections());
                       }));
    }
    ServerCounters::Get().accepted->Add(1);
    ServerCounters::Get().open->Set(open_connections());
  }
}

void NetServer::HandleConnection(Connection* conn) {
  std::unique_lock<std::mutex> read_side(conn->read_mu);
  if (Handshake(conn)) {
    while (running_.load(std::memory_order_acquire) &&
           conn->ending == Ending::kNone) {
      Result<Frame> frame = ReadFrame(conn->fd, config_.max_frame_payload);
      if (!frame.ok()) {
        NoteReadFailure(conn, frame.status());
        break;
      }
      switch (frame->type) {
        case FrameType::kQuery: {
          PayloadReader r(frame->payload);
          Result<std::string> sql = r.GetString();
          if (!sql.ok()) {
            SendError(conn, sql.status());
            break;
          }
          ServerCounters::Get().queries->Add(1);
          RunStatement(conn, &read_side, sql.value());
          break;
        }
        case FrameType::kCancel:
          // Between statements nothing runs: a CANCEL that arrives after
          // its statement ended has nothing left to kill.
          ServerCounters::Get().cancels->Add(1);
          break;
        case FrameType::kPing:
          (void)WriteFrame(conn->fd, FrameType::kPing, frame->payload);
          break;
        case FrameType::kGoodbye:
          conn->ending = Ending::kGoodbye;
          break;
        default:
          SendError(conn,
                    Status::InvalidArgument("unexpected frame type after "
                                            "handshake"));
          break;
      }
    }
    if (conn->ending == Ending::kGoodbye) {
      (void)WriteFrame(conn->fd, FrameType::kGoodbye, {});
    } else if (conn->ending == Ending::kMalformed) {
      // Malformed traffic (bad magic, oversized length, CRC damage):
      // answer with a typed ERROR so a confused-but-honest client learns
      // why, then drop the connection. The server survives.
      SendError(conn, conn->malformed);
    }
  }
  TeardownConnection(conn);
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
      (void)WriteFrame(conn->fd, FrameType::kPing, frame->payload);
      continue;
    }
    if (frame->type == FrameType::kGoodbye) {
      (void)WriteFrame(conn->fd, FrameType::kGoodbye, {});
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
    int64_t session = server_->OpenSession();
    conn->session_id.store(session);
    PayloadWriter w;
    w.PutU64(static_cast<uint64_t>(session));
    return WriteFrame(conn->fd, FrameType::kAuth, w.buffer()).ok();
  }
  return false;
}

void NetServer::RunStatement(Connection* conn,
                             std::unique_lock<std::mutex>* read_side,
                             std::string_view sql) {
  conn->statement_running.store(true);
  server::StatementOutcome outcome;
  if (running_.load()) {
    read_side->unlock();
    outcome = server_->Execute(conn->session_id.load(), sql);
    // Taken back before the first reply frame: once the client sees it, it
    // may send its next frame, which is this thread's to read.
    read_side->lock();
  } else {
    // Stop() may have passed this connection already; it kills nothing
    // that starts after it.
    outcome = server::StatementOutcome::FromStatus(
        Status::Cancelled("server stopping"));
  }
  conn->statement_running.store(false);
  if (!outcome.ok()) {
    SendError(conn, outcome.status);
  } else if (Status st = StreamOutcome(conn, outcome); !st.ok()) {
    // A value that did not encode ends the stream with a typed ERROR; to a
    // client that vanished mid-stream it goes nowhere.
    SendError(conn, st);
  }
}

Status NetServer::StreamOutcome(Connection* conn,
                                const server::StatementOutcome& outcome) {
  const auto& sets = outcome.result_sets;

  if (sets.empty()) {
    // DDL/DML batches produce no result sets but still need a terminator.
    PayloadWriter w;
    w.PutU32(kRowsStatementDone);
    w.PutU32(kNoResultSet);
    w.PutU32(0);   // no rows in this chunk
    w.PutBytes({});  // empty row payload
    w.PutU32(0);   // statement produced zero result sets
    AppendStatsTrailer(&w, outcome.stats);
    return WriteFrame(conn->fd, FrameType::kRows, w.buffer());
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
      SQLARRAY_RETURN_IF_ERROR(
          WriteFrame(conn->fd, FrameType::kRows, w.buffer()));
      first_chunk = false;
    } while (row < rs.rows.size());
  }
  return Status::OK();
}

void NetServer::SendError(Connection* conn, const Status& st) {
  ServerCounters::Get().errors_sent->Add(1);
  (void)WriteFrame(conn->fd, FrameType::kError, EncodeError(st));
}

void NetServer::NoteReadFailure(Connection* conn, Status st) {
  if (st.code() == StatusCode::kNotFound) {
    conn->ending = Ending::kPeerClosed;
  } else {
    conn->ending = Ending::kMalformed;
    conn->malformed = std::move(st);
  }
}

void NetServer::TeardownConnection(Connection* conn) {
  // Statements run on the connection thread, so none is running here.
  int64_t session = conn->session_id.exchange(-1);
  if (session >= 0) {
    (void)server_->CloseSession(session);
    auth_->ReleaseSession(conn->user);
  }
  // The client sees EOF now; the descriptor closes with the last reference.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void NetServer::WatchLoop() {
  while (running_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(kWatchTick);
    std::vector<std::shared_ptr<Connection>> running;
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, c] : connections_) {
        if (c->statement_running.load()) running.push_back(c);
      }
      for (auto it = threads_.begin(); it != threads_.end();) {
        if (connections_.count(it->first) == 0) {
          finished.push_back(std::move(it->second));
          it = threads_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (auto& c : running) WatchStatement(c.get());
    for (auto& t : finished) t.join();
  }
}

void NetServer::WatchStatement(Connection* conn) {
  std::unique_lock<std::mutex> read_side(conn->read_mu, std::try_to_lock);
  // Held by the connection thread: its statement has ended.
  if (!read_side.owns_lock() || !conn->statement_running.load()) return;
  while (conn->ending == Ending::kNone) {
    Result<std::optional<FrameHeader>> next =
        PeekBufferedFrame(conn->fd, config_.max_frame_payload);
    // Wait for a frame still in transit; leave the rest to the connection
    // thread, which reads it after this statement, in order.
    if (next.ok() && (!next->has_value() || !WatcherTakes(conn->fd, **next))) {
      return;
    }
    Result<Frame> frame =
        next.ok() ? ReadFrame(conn->fd, config_.max_frame_payload)
                  : Result<Frame>(next.status());
    if (!frame.ok()) {
      NoteReadFailure(conn, frame.status());
      if (conn->ending == Ending::kPeerClosed) {
        // The client is gone, so nobody will consume the result.
        ServerCounters::Get().disconnect_kills->Add(1);
      }
    } else if (frame->type == FrameType::kPing) {
      (void)WriteFrame(conn->fd, FrameType::kPing, frame->payload);
      continue;
    } else if (frame->type == FrameType::kGoodbye) {
      conn->ending = Ending::kGoodbye;
    } else {
      ServerCounters::Get().cancels->Add(1);
    }
    (void)server_->KillQuery(conn->session_id.load());
  }
}

}  // namespace sqlarray::net
