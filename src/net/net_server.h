// Networked front-end: a socket listener in front of server::ArrayServer.
//
// Threading model: one listener thread accepts connections, one watcher
// thread serves the whole server, and each connection gets one thread. The
// connection thread runs the connection state machine (HELLO → AUTH →
// query loop) and executes each QUERY itself, so a statement's critical
// path is client → connection thread → client, the same shape as a PING.
//
// The connection's read side is a lock, and every read and write of its
// socket happens under it. The connection thread holds it at all times
// except while its statement runs inside ArrayServer::Execute, and takes
// it back before writing the statement's first reply frame. Each tick the
// watcher visits the connections whose statement is running and tries to
// take the read side; holding it, the watcher reads only whole frames that
// are already buffered, so it never blocks. CANCEL fires
// ArrayServer::KillQuery, and a PING is echoed when the echo cannot block
// either; GOODBYE, a vanished client or a malformed frame also kill the
// statement, and the connection thread sends the ack or the ERROR and
// tears down once the statement has ended.
// A QUERY is left in the socket and runs after the current statement, in
// order. A statement that ends within one tick never meets the watcher.
// The cooperative cancellation machinery unwinds a killed statement and
// the WAL rolls back whatever transaction the kill left open. The watcher
// also joins the threads of closed connections.
//
// Admission control, per-session deadlines, memory budgets, KillQuery, and
// the slow-query watchdog all apply unchanged — the NetServer adds no
// second scheduling layer, it only moves ArrayServer's caller threads to
// the other end of a socket. Overload rejections travel as typed ERROR
// frames carrying kResourceExhausted and the controller's retry-after
// hint.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>

#include "common/status.h"
#include "net/auth.h"
#include "net/wire.h"
#include "server/server.h"

namespace sqlarray::net {

struct NetServerConfig {
  /// Loopback by default: this is a science-cluster service, not an
  /// internet listener; binding wider is an explicit decision.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read the bound one from port().
  uint16_t port = 0;
  /// Reception cap on one frame's payload (hostile-length defense).
  uint32_t max_frame_payload = kMaxFramePayload;
  /// Row-streaming chunk bounds: a ROWS frame closes when it reaches
  /// either limit, so a huge SELECT streams in bounded frames instead of
  /// materializing a second full copy in one buffer.
  int64_t rows_per_chunk = 256;
  int64_t chunk_soft_bytes = 256 * 1024;
  /// Concurrent connections; further accepts get a typed ERROR + close.
  int max_connections = 128;
};

class NetServer {
 public:
  /// The server fronts an existing ArrayServer and AuthManager; it owns
  /// neither (tests and benches share them with in-process callers).
  NetServer(server::ArrayServer* server, AuthManager* auth,
            NetServerConfig config = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the accept loop. kInternal on bind errors
  /// (port in use, bad address).
  Status Start();

  /// Stops accepting, kills running statements, unblocks every connection
  /// thread, joins all threads, and closes all sessions. Idempotent.
  void Stop();

  /// The bound TCP port (valid after Start); 0 before.
  uint16_t port() const { return bound_port_; }

  int open_connections() const;

 private:
  /// How the client ended the connection while a statement ran.
  enum class Ending { kNone, kGoodbye, kPeerClosed, kMalformed };

  struct Connection {
    explicit Connection(int socket) : fd(socket) {}
    /// The last reference closes the socket, so a descriptor another
    /// thread still holds is never reused under it.
    ~Connection();
    Connection(const Connection&) = delete;
    Connection& operator=(const Connection&) = delete;

    const int fd;
    /// Written by the connection thread; read by the watcher and Stop().
    std::atomic<int64_t> session_id{-1};
    std::string user;
    /// The read side: the right to read and write the socket.
    std::mutex read_mu;
    /// True from just before the read side is released for a statement
    /// until it is taken back.
    std::atomic<bool> statement_running{false};
    /// Set by whoever read the frame that ends the connection. Guarded by
    /// read_mu, with `malformed`, the ERROR a kMalformed ending sends.
    Ending ending = Ending::kNone;
    Status malformed;
  };

  void AcceptLoop();
  void HandleConnection(Connection* conn);
  /// Runs the HELLO + AUTH prologue. On success the connection has an open
  /// ArrayServer session. Fails closed: any protocol violation gets a
  /// typed ERROR frame and a false return (caller drops the connection).
  bool Handshake(Connection* conn);
  /// Executes one QUERY with the read side released, then streams the
  /// outcome with it held again.
  void RunStatement(Connection* conn, std::unique_lock<std::mutex>* read_side,
                    std::string_view sql);
  Status StreamOutcome(Connection* conn,
                       const server::StatementOutcome& outcome);
  void SendError(Connection* conn, const Status& st);
  /// Records a failed read: a closed peer, or a malformed frame whose
  /// ERROR goes out before teardown.
  static void NoteReadFailure(Connection* conn, Status st);
  /// Closes the session, releases the auth lease, and shuts the socket.
  void TeardownConnection(Connection* conn);
  /// The watcher's body: each tick, WatchStatement on every connection
  /// whose statement runs, then joins the threads of closed connections.
  void WatchLoop();
  /// Handles the control frames already buffered on a running statement's
  /// connection, if its read side is free. Never blocks.
  void WatchStatement(Connection* conn);

  server::ArrayServer* const server_;
  AuthManager* const auth_;
  const NetServerConfig config_;

  std::atomic<bool> running_{false};
  /// Atomic: Stop() retires the fd while AcceptLoop reads it.
  std::atomic<int> listen_fd_{-1};
  uint16_t bound_port_ = 0;

  mutable std::mutex mu_;  ///< guards connections_, threads_, next_conn_id_
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  /// One thread per connection; the watcher joins it once its connection
  /// has left connections_.
  std::map<uint64_t, std::thread> threads_;
  uint64_t next_conn_id_ = 1;

  /// Declared after everything the threads use.
  std::thread accept_thread_;
  std::thread watcher_;
};

}  // namespace sqlarray::net
