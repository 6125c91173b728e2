// Networked front-end: a socket listener in front of server::ArrayServer.
//
// Threading model: one listener thread accepts connections; each connection
// gets a dedicated handler thread that owns the socket's read side and the
// connection state machine (HELLO → AUTH → query loop), and one statement
// worker thread, started on its first QUERY. The handler hands each QUERY
// to the worker through a one-statement slot (mutex + condition variable)
// and keeps reading while the statement executes — that is what makes
// CANCEL frames and client disconnects effective mid-query: both fire
// ArrayServer::KillQuery, the cooperative cancellation machinery unwinds
// the statement, and the WAL rolls back whatever transaction the kill left
// open. The worker lives as long as the connection, so a statement costs a
// wake-up rather than a thread create + join; teardown stops and joins it.
// Socket writes are serialized per connection (the worker streams ROWS
// chunks while the handler may answer PING).
//
// Admission control, per-session deadlines, memory budgets, KillQuery, and
// the slow-query watchdog all apply unchanged — the NetServer adds no
// second scheduling layer, it only moves ArrayServer's caller threads to
// the other end of a socket. Overload rejections travel as typed ERROR
// frames carrying kResourceExhausted and the controller's retry-after
// hint.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
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

  /// Stops accepting, kills in-flight statements, unblocks every handler,
  /// joins all threads, and closes all sessions. Idempotent.
  void Stop();

  /// The bound TCP port (valid after Start); 0 before.
  uint16_t port() const { return bound_port_; }

  int open_connections() const;

 private:
  struct Connection {
    int fd = -1;
    int64_t session_id = -1;
    std::string user;
    /// Serializes socket writes between the handler thread (PING echo,
    /// errors) and the statement worker (ROWS streaming).
    std::mutex write_mu;
    std::atomic<bool> query_running{false};
    /// The statement worker's slot: `next` holds a statement the worker
    /// has not taken yet; `stopping` tells it to exit. Both are guarded by
    /// worker_mu.
    std::mutex worker_mu;
    std::condition_variable worker_cv;
    std::optional<std::string> next;
    bool stopping = false;
    /// Declared after everything the worker uses.
    std::thread worker;
  };

  void AcceptLoop();
  void HandleConnection(std::shared_ptr<Connection> conn);
  /// Runs the HELLO + AUTH prologue. On success the connection has an open
  /// ArrayServer session. Fails closed: any protocol violation gets a
  /// typed ERROR frame and a false return (caller drops the connection).
  bool Handshake(Connection* conn);
  /// Hands `sql` to the connection's statement worker, starting the worker
  /// on the first call.
  void SubmitStatement(Connection* conn, std::string sql);
  /// The statement worker's body: runs each submitted statement until
  /// teardown sets `stopping`.
  void StatementLoop(Connection* conn);
  /// Executes one QUERY and streams the outcome.
  void RunStatement(Connection* conn, std::string sql);
  Status StreamOutcome(Connection* conn,
                       const server::StatementOutcome& outcome);
  void SendError(Connection* conn, const Status& st);
  /// Kills any in-flight statement, stops and joins the worker, closes the
  /// session (idempotent), releases the auth lease, and closes the socket.
  void TeardownConnection(Connection* conn);

  server::ArrayServer* const server_;
  AuthManager* const auth_;
  const NetServerConfig config_;

  std::atomic<bool> running_{false};
  /// Atomic: Stop() retires the fd while AcceptLoop reads it.
  std::atomic<int> listen_fd_{-1};
  uint16_t bound_port_ = 0;
  std::thread accept_thread_;

  mutable std::mutex mu_;  ///< guards connections_ and handler_threads_
  std::map<uint64_t, std::shared_ptr<Connection>> connections_;
  std::map<uint64_t, std::thread> handler_threads_;
  uint64_t next_conn_id_ = 1;
};

}  // namespace sqlarray::net
