#include "gov/gov.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"

namespace sqlarray::gov {

namespace {

obs::Counter* CancelCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("gov.cancelled");
  return c;
}

obs::Counter* DeadlineCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("gov.deadline_kills");
  return c;
}

obs::Counter* BudgetCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("gov.budget_kills");
  return c;
}

thread_local const QueryLimits* t_limits = nullptr;

}  // namespace

const char* KillReasonName(KillReason reason) {
  switch (reason) {
    case KillReason::kNone:
      return "none";
    case KillReason::kUser:
      return "user";
    case KillReason::kDeadline:
      return "deadline";
    case KillReason::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

void CancelSource::CancelLocked(KillReason reason, std::string detail) {
  // First transition wins: the store below publishes reason_/detail_.
  if (cancelled_.load(std::memory_order_relaxed)) return;
  reason_ = reason;
  detail_ = std::move(detail);
  cancelled_.store(true, std::memory_order_release);
  if (reason == KillReason::kDeadline) {
    DeadlineCounter()->Add(1);
  } else {
    CancelCounter()->Add(1);
  }
}

void CancelSource::Cancel(KillReason reason, std::string detail) {
  std::lock_guard<std::mutex> lock(mu_);
  CancelLocked(reason, std::move(detail));
}

void CancelSource::ArmDeadline(std::chrono::steady_clock::time_point deadline) {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_ = deadline;
  deadline_armed_.store(true, std::memory_order_release);
}

void CancelSource::DisarmDeadline() {
  std::lock_guard<std::mutex> lock(mu_);
  deadline_armed_.store(false, std::memory_order_release);
}

Status CancelSource::StatusNow() const {
  if (!cancelled_.load(std::memory_order_acquire)) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  std::string msg = detail_.empty()
                        ? std::string("query cancelled (") +
                              KillReasonName(reason_) + ")"
                        : detail_;
  if (reason_ == KillReason::kDeadline) {
    return Status::DeadlineExceeded(std::move(msg));
  }
  return Status::Cancelled(std::move(msg));
}

Status CancelSource::Check() {
  if (cancelled_.load(std::memory_order_acquire)) return StatusNow();
  if (deadline_armed_.load(std::memory_order_acquire)) {
    uint64_t n = probe_count_.fetch_add(1, std::memory_order_relaxed);
    if (n % kDeadlineStride == 0) ProbeDeadline();
    if (cancelled_.load(std::memory_order_acquire)) return StatusNow();
  }
  return Status::OK();
}

bool CancelSource::ProbeDeadline() {
  if (!deadline_armed_.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (!deadline_armed_.load(std::memory_order_relaxed)) return false;
  if (std::chrono::steady_clock::now() < deadline_) return false;
  bool was_cancelled = cancelled_.load(std::memory_order_relaxed);
  CancelLocked(KillReason::kDeadline, "statement timeout exceeded");
  return !was_cancelled;
}

void CancelSource::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  cancelled_.store(false, std::memory_order_release);
  deadline_armed_.store(false, std::memory_order_release);
  reason_ = KillReason::kNone;
  detail_.clear();
}

void MemoryBudget::Reset(int64_t limit_bytes) {
  used_.store(0, std::memory_order_relaxed);
  peak_.store(0, std::memory_order_relaxed);
  limit_.store(limit_bytes, std::memory_order_relaxed);
  exceeded_.store(false, std::memory_order_relaxed);
}

Status MemoryBudget::Charge(int64_t bytes) {
  int64_t now = used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // Peak tracking: lock-free max fold.
  int64_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  int64_t limit = limit_.load(std::memory_order_relaxed);
  if (limit <= 0) return Status::OK();
  if (exceeded_.load(std::memory_order_relaxed) || now > limit) {
    if (!exceeded_.exchange(true, std::memory_order_relaxed)) {
      BudgetCounter()->Add(1);
    }
    return Status::ResourceExhausted(
        "memory budget exceeded: " + std::to_string(now) + " bytes used, " +
        std::to_string(limit) + " byte limit");
  }
  return Status::OK();
}

void MemoryBudget::Release(int64_t bytes) {
  used_.fetch_sub(bytes, std::memory_order_relaxed);
}

Status MemoryBudget::CheckFits(int64_t bytes) const {
  const int64_t limit = limit_.load(std::memory_order_relaxed);
  if (limit <= 0) return Status::OK();
  const int64_t left = limit - used_.load(std::memory_order_relaxed);
  if (bytes <= left) return Status::OK();
  return Status::ResourceExhausted(
      "allocation of " + std::to_string(bytes) + " bytes exceeds the " +
      std::to_string(std::max<int64_t>(left, 0)) + " bytes left of a " +
      std::to_string(limit) + " byte memory budget");
}

ScopedThreadLimits::ScopedThreadLimits(const QueryLimits* limits)
    : prev_(t_limits) {
  t_limits = limits;
}

ScopedThreadLimits::~ScopedThreadLimits() { t_limits = prev_; }

const QueryLimits* ThreadLimits() { return t_limits; }

Status CheckThreadCancel() {
  const QueryLimits* l = t_limits;
  if (l == nullptr || l->cancel == nullptr) return Status::OK();
  return l->cancel->Check();
}

Status CheckThreadAllocation(int64_t bytes) {
  const QueryLimits* l = t_limits;
  if (l == nullptr || l->budget == nullptr) return Status::OK();
  return l->budget->CheckFits(bytes);
}

}  // namespace sqlarray::gov
