#include "server/server.h"

#include <utility>

namespace sqlarray::server {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool IsKillStatus(const Status& st) {
  return st.code() == StatusCode::kCancelled ||
         st.code() == StatusCode::kDeadlineExceeded ||
         st.code() == StatusCode::kResourceExhausted;
}

}  // namespace

ArrayServer::ArrayServer(engine::Executor* executor, ServerConfig config)
    : executor_(executor),
      config_(config),
      admission_(config.admission),
      watchdog_([this] { WatchdogLoop(); }) {}

ArrayServer::~ArrayServer() {
  shutdown_.store(true, std::memory_order_release);
  if (watchdog_.joinable()) watchdog_.join();
  // Fire every session's source so statements still running on caller
  // threads unwind promptly, then wait for them to drain: SessionEntry
  // lifetimes are shared_ptr-managed, but the sessions reference the
  // executor, which outlives the server only by the caller's grace.
  std::vector<std::shared_ptr<SessionEntry>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, e] : sessions_) entries.push_back(e);
  }
  for (auto& e : entries) {
    e->cancel->Cancel(gov::KillReason::kShutdown, "server shutting down");
  }
  for (auto& e : entries) {
    while (e->busy.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
}

int64_t ArrayServer::OpenSession() {
  auto entry = std::make_shared<SessionEntry>();
  entry->session = std::make_unique<sql::Session>(executor_);
  entry->cancel = entry->session->cancel_source();
  std::lock_guard<std::mutex> lock(mu_);
  int64_t id = next_id_++;
  sessions_.emplace(id, std::move(entry));
  return id;
}

Status ArrayServer::CloseSession(int64_t id) {
  std::shared_ptr<SessionEntry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    // Idempotent: the connection teardown path can race a client GOODBYE
    // against a socket disconnect, so a second close must be a no-op.
    if (it == sessions_.end()) return Status::OK();
    entry = it->second;
    sessions_.erase(it);
  }
  if (entry->busy.load(std::memory_order_acquire)) {
    entry->cancel->Cancel(gov::KillReason::kUser, "session closed");
    while (entry->busy.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return Status::OK();
}

StatementOutcome ArrayServer::Execute(int64_t id, std::string_view sql) {
  std::shared_ptr<SessionEntry> entry = FindEntry(id);
  if (entry == nullptr) {
    return StatementOutcome::FromStatus(
        Status::NotFound("no session " + std::to_string(id)));
  }
  bool expected = false;
  entry->started_ns.store(NowNs(), std::memory_order_relaxed);
  if (!entry->busy.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
    return StatementOutcome::FromStatus(Status::InvalidArgument(
        "session " + std::to_string(id) +
        " already has a statement in flight"));
  }
  Result<gov::AdmissionSlot> slot = admission_.Admit(entry->cancel.get());
  if (!slot.ok()) {
    // Rejected (queue full): nothing executed, so an open explicit
    // transaction from an earlier batch stays open for the retry. Killed
    // before or while waiting: the kill aborts this statement as one that
    // strikes mid-flight does, rolling back the open transaction, and is
    // consumed so the next attempt runs normally.
    if (entry->cancel->cancelled()) {
      entry->cancel->Reset();
      (void)entry->session->ForceRollback();
    }
    entry->busy.store(false, std::memory_order_release);
    return StatementOutcome::FromStatus(slot.status());
  }
  entry->session->set_admission_wait(slot.value().wait_seconds());
  Result<std::vector<engine::ResultSet>> result = [&] {
    // The slot is held for the statement's whole lifetime; its destructor
    // (end of this lambda) wakes the next queued statement.
    gov::AdmissionSlot held = std::move(slot).value();
    return entry->session->Execute(sql);
  }();
  StatementOutcome outcome;
  if (result.ok()) {
    outcome.result_sets = std::move(result).value();
    outcome.stats = entry->session->last_stats();
  } else {
    outcome = StatementOutcome::FromStatus(result.status());
    if (IsKillStatus(result.status())) {
      // The kill may have struck inside an explicit transaction; roll it
      // back so the session's next statement starts clean.
      (void)entry->session->ForceRollback();
    }
  }
  entry->busy.store(false, std::memory_order_release);
  return outcome;
}

Status ArrayServer::KillQuery(int64_t id) {
  std::shared_ptr<SessionEntry> entry = FindEntry(id);
  if (entry == nullptr) {
    return Status::NotFound("no session " + std::to_string(id));
  }
  entry->cancel->Cancel(gov::KillReason::kUser,
                        "killed on session " + std::to_string(id));
  return Status::OK();
}

sql::Session* ArrayServer::session(int64_t id) {
  std::shared_ptr<SessionEntry> entry = FindEntry(id);
  return entry == nullptr ? nullptr : entry->session.get();
}

int ArrayServer::open_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(sessions_.size());
}

std::shared_ptr<ArrayServer::SessionEntry> ArrayServer::FindEntry(
    int64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  return it == sessions_.end() ? nullptr : it->second;
}

void ArrayServer::WatchdogLoop() {
  const auto interval = std::chrono::milliseconds(
      config_.watchdog_interval_ms > 0 ? config_.watchdog_interval_ms : 5);
  while (!shutdown_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    std::vector<std::shared_ptr<SessionEntry>> entries;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [id, e] : sessions_) {
        if (e->busy.load(std::memory_order_acquire)) entries.push_back(e);
      }
    }
    int64_t now = NowNs();
    for (auto& e : entries) {
      // Backstop for code between cooperative checks: force a wall-clock
      // comparison of the session's armed deadline.
      e->cancel->ProbeDeadline();
      if (config_.slow_query_ms > 0) {
        int64_t age_ms =
            (now - e->started_ns.load(std::memory_order_relaxed)) / 1000000;
        if (age_ms > config_.slow_query_ms) {
          e->cancel->Cancel(gov::KillReason::kDeadline,
                            "slow-query watchdog (ran " +
                                std::to_string(age_ms) + "ms, cap " +
                                std::to_string(config_.slow_query_ms) +
                                "ms)");
        }
      }
    }
  }
}

}  // namespace sqlarray::server
