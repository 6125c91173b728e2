// Resource governance primitives: cancellation tokens, statement deadlines,
// and memory budgets.
//
// The engine executes queries cooperatively — there is no thread to kill —
// so every long loop (morsel bodies, serial row scans, batched evaluation,
// UDF invocations, and the typed core kernels) periodically asks its
// CancelSource whether it should stop. A cancelled query unwinds through
// the ordinary Status machinery (kCancelled / kDeadlineExceeded), which
// releases page pins and worker slots by plain RAII and lets the session's
// autocommit wrapper roll back the open WAL transaction.
//
// Three actors can fire a source:
//   * the session itself, when the per-statement deadline it armed expires
//     (self-checked every kDeadlineStride probes, so an idle-looking loop
//     still notices without a syscall per row);
//   * the server's slow-query watchdog, which probes every active session's
//     source on a short interval (the backstop for code between checks);
//   * a user kill (ArrayServer::KillQuery), which cancels immediately.
// The first Cancel() wins; later calls are no-ops. A consumed cancellation
// is Reset() by the session after the failing statement returns, so one
// kill aborts exactly one statement and the session stays usable; a
// deadline kill is cleared when the statement disarms its deadline, so one
// that fires just after the statement returned aborts nothing.
//
// MemoryBudget is per-statement accounting, charged at the points where
// query-private memory actually grows (hash-aggregate groups, row-mode
// output buffers, evaluation batches). It is shared by all morsel workers
// of the statement, hence the atomics. Exceeding the budget aborts the
// query with kResourceExhausted — never the process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace sqlarray::gov {

/// Why a source was cancelled (drives the gov.* kill counters).
enum class KillReason {
  kNone = 0,
  kUser,      ///< explicit kill (KILL / session close)
  kDeadline,  ///< statement timeout expired
  kShutdown,  ///< server shutting down
};

const char* KillReasonName(KillReason reason);

/// Shared cancellation state for one session. Cheap to probe from many
/// threads; Cancel/Arm/Reset are rare control-plane operations.
class CancelSource {
 public:
  /// How many Check() probes elapse between wall-clock deadline reads.
  /// The flag itself is read on every probe (one relaxed atomic load).
  static constexpr uint64_t kDeadlineStride = 128;

  /// Fires the source. First transition wins and bumps the matching gov.*
  /// counter; later calls are no-ops. Safe from any thread.
  void Cancel(KillReason reason, std::string detail = "");

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Arms a wall-clock deadline for the statement about to run. Replaces
  /// any previous deadline. Call from the session thread before execution.
  void ArmDeadline(std::chrono::steady_clock::time_point deadline);
  /// Disarms the statement deadline when the statement ends, and clears a
  /// deadline kill (kDeadline) with it; a user or shutdown kill stays.
  void DisarmDeadline();
  bool deadline_armed() const {
    return deadline_armed_.load(std::memory_order_acquire);
  }

  /// The cooperative probe: returns the cancellation status if fired, and
  /// every kDeadlineStride calls (plus the very first) compares the armed
  /// deadline against the clock, firing kDeadline on expiry.
  Status Check();

  /// Forces a full deadline comparison regardless of the probe stride —
  /// what the watchdog calls on its scan interval. Returns true when this
  /// call fired the deadline.
  bool ProbeDeadline();

  /// The current state as a Status without touching the clock (kOk when
  /// not cancelled).
  Status StatusNow() const;

  /// Clears a consumed cancellation so the next statement runs normally.
  /// Call only from the owning session, between statements.
  void Reset();

 private:
  void CancelLocked(KillReason reason, std::string detail);

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> deadline_armed_{false};
  std::atomic<uint64_t> probe_count_{0};
  mutable std::mutex mu_;  ///< guards deadline_, reason_, detail_
  std::chrono::steady_clock::time_point deadline_{};
  KillReason reason_ = KillReason::kNone;
  std::string detail_;
};

/// Per-statement memory accounting shared by all workers of the statement.
/// limit 0 means unlimited (accounting still runs, for peak reporting).
class MemoryBudget {
 public:
  /// Re-arms the budget for a new statement: clears usage and peak.
  void Reset(int64_t limit_bytes);

  /// Charges `bytes` of query-private memory. On crossing the limit the
  /// first caller bumps gov.budget_kills and every caller (including
  /// later ones — the overrun is sticky until Reset) gets
  /// kResourceExhausted, so all workers of the statement unwind.
  Status Charge(int64_t bytes);

  /// Returns previously charged bytes (optional; Reset clears everything).
  void Release(int64_t bytes);

  /// kResourceExhausted when `bytes` exceed what is left of the limit;
  /// charges nothing. Callers check before an allocation sized by input.
  Status CheckFits(int64_t bytes) const;

  int64_t used() const { return used_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }
  int64_t limit() const { return limit_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> used_{0};
  std::atomic<int64_t> peak_{0};
  std::atomic<int64_t> limit_{0};
  std::atomic<bool> exceeded_{false};
};

/// The per-query governance bundle the executor threads through its loops.
/// Both members may be null/empty — an ungoverned query (engine tests,
/// internal subqueries without a session) probes nothing.
struct QueryLimits {
  std::shared_ptr<CancelSource> cancel;
  MemoryBudget* budget = nullptr;

  Status Check() const {
    return cancel != nullptr ? cancel->Check() : Status::OK();
  }
  Status Charge(int64_t bytes) const {
    return budget != nullptr ? budget->Charge(bytes) : Status::OK();
  }
  bool governed() const { return cancel != nullptr || budget != nullptr; }
};

/// Thread-local plumbing for code too deep to take a QueryLimits parameter
/// (the typed core kernels and the hosted functions that size memory from
/// their arguments). The executor installs a statement's limits where it
/// reaches them: EvalStandalone on the calling thread, RunMorselScan on
/// each worker for the duration of the scan.
class ScopedThreadLimits {
 public:
  explicit ScopedThreadLimits(const QueryLimits* limits);
  ~ScopedThreadLimits();
  ScopedThreadLimits(const ScopedThreadLimits&) = delete;
  ScopedThreadLimits& operator=(const ScopedThreadLimits&) = delete;

 private:
  const QueryLimits* prev_;
};

/// Probes the thread-installed cancellation token (kOk when none). Long
/// kernels call this every few thousand elements.
Status CheckThreadCancel();

/// Checks an allocation of `bytes` against the thread-installed budget
/// (MemoryBudget::CheckFits; kOk when none is installed). Hosted functions
/// that size memory from their arguments call this before allocating.
Status CheckThreadAllocation(int64_t bytes);

}  // namespace sqlarray::gov
