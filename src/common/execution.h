// Copyright 2026 The balanced-clique Authors.
//
// The execution governor: a single ExecutionContext bundles the wall-clock
// deadline, cooperative cancellation, memory budget, and fault injection
// used by every solver in the repository. Search loops call Checkpoint()
// (amortized: one relaxed atomic increment per call, a full probe every
// kCheckpointStride calls) and unwind as soon as it returns true, leaving
// the best-so-far answer intact. The first interrupt reason observed is
// sticky, so a context shared by several phases (reduction, heuristic,
// search) or several worker threads reports one coherent verdict.
#ifndef MBC_COMMON_EXECUTION_H_
#define MBC_COMMON_EXECUTION_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "src/common/macros.h"
#include "src/common/memory.h"
#include "src/common/status.h"

namespace mbc {

/// Why a solver stopped early. kNone means the run completed exactly.
enum class InterruptReason : uint8_t {
  kNone = 0,
  kDeadline = 1,      // wall-clock budget exhausted
  kCancelled = 2,     // CancellationToken tripped (another thread / SIGINT)
  kMemoryBudget = 3,  // MemoryBudget exceeded
  kInjectedFault = 4, // deterministic fault injection (MBC_FAULT_INJECT)
};

/// Short lowercase name, e.g. "deadline"; stable for CLI/log output.
const char* InterruptReasonName(InterruptReason reason);

/// Maps an interrupt onto the Status model: kNone -> OK,
/// kCancelled/kInjectedFault -> Cancelled, kDeadline -> DeadlineExceeded,
/// kMemoryBudget -> ResourceExhausted. The three codes stay distinct all
/// the way to the JSONL error field so clients can tell "waited too long"
/// (not retryable as-is) from "out of capacity" (retryable with backoff).
Status InterruptStatus(InterruptReason reason);

/// Absolute monotonic wall-clock deadline. Default-constructed = infinite.
class Deadline {
 public:
  Deadline() = default;

  static Deadline Infinite() { return Deadline(); }
  /// Expires `seconds` from now; seconds <= 0 is already expired.
  static Deadline After(double seconds);

  bool IsInfinite() const { return when_ == Clock::time_point::max(); }
  bool Expired() const { return !IsInfinite() && Clock::now() >= when_; }
  /// Seconds until expiry; negative once past, +infinity when infinite.
  double RemainingSeconds() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point when_ = Clock::time_point::max();
};

/// Cooperative cancellation flag. Cancel() is a single relaxed atomic
/// store, safe from any thread and from signal handlers (async-signal-safe
/// per POSIX for lock-free atomics).
class CancellationToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Logical memory ceiling. Checks the explicitly-accounted MemoryTracker
/// (structure-level bytes) and optionally the process RSS, whichever is
/// observed first above the limit. limit_bytes == 0 means unlimited.
class MemoryBudget {
 public:
  MemoryBudget() = default;  // unlimited
  MemoryBudget(uint64_t limit_bytes, const MemoryTracker* tracker,
               bool include_rss)
      : limit_bytes_(limit_bytes),
        tracker_(tracker),
        include_rss_(include_rss) {}

  /// Budget over the global tracker plus process RSS (the CLI default).
  static MemoryBudget Limit(uint64_t limit_bytes) {
    return MemoryBudget(limit_bytes, &MemoryTracker::Global(),
                        /*include_rss=*/true);
  }

  bool Unlimited() const { return limit_bytes_ == 0; }
  uint64_t limit_bytes() const { return limit_bytes_; }
  bool Exceeded() const;

 private:
  uint64_t limit_bytes_ = 0;  // 0 == unlimited
  const MemoryTracker* tracker_ = nullptr;
  bool include_rss_ = false;
};

/// Shared governor for one solver run (or a whole pipeline of runs). All
/// members are thread-safe: mbc_parallel hands one context to every worker,
/// and the CLI cancels it from a signal handler.
class ExecutionContext {
 public:
  /// Hot loops see a full probe every this many Checkpoint() calls. The
  /// very first call probes, so a zero deadline trips deterministically.
  static constexpr uint64_t kCheckpointStride = 1024;

  /// Reads MBC_FAULT_INJECT ("<probability>[,<seed>]") once per process
  /// and arms fault injection when it is set.
  ExecutionContext();
  explicit ExecutionContext(Deadline deadline);

  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Replaces the deadline. A deadline that is already expired interrupts
  /// the context immediately, so a zero budget trips deterministically
  /// even when every search loop collapses before its first checkpoint.
  void set_deadline(Deadline deadline) {
    deadline_ = deadline;
    if (deadline_.Expired()) Interrupt(InterruptReason::kDeadline);
  }
  const Deadline& deadline() const { return deadline_; }
  void set_memory_budget(MemoryBudget budget) { memory_ = budget; }
  const MemoryBudget& memory_budget() const { return memory_; }

  CancellationToken& cancellation() { return cancel_; }
  /// Convenience for the owning thread / signal handler.
  void RequestCancel() { cancel_.Cancel(); }

  /// Arms deterministic fault injection: each full probe draws from a
  /// SplitMix64 stream seeded with `seed` and trips kInjectedFault with
  /// the given per-probe probability. probability <= 0 disarms.
  void ArmFaultInjection(double probability, uint64_t seed);
  void DisarmFaultInjection() { fault_threshold_ = 0; }
  bool fault_injection_armed() const { return fault_threshold_ != 0; }

  /// Amortized probe for hot search loops. Returns true once the context
  /// is interrupted (sticky). Cost when not interrupted: one relaxed
  /// fetch_add and a branch, plus a full Probe() every kCheckpointStride
  /// calls (and on the very first call).
  bool Checkpoint() {
    if (MBC_PREDICT_FALSE(Interrupted())) return true;
    const uint64_t tick = ticks_.fetch_add(1, std::memory_order_relaxed);
    if (MBC_PREDICT_TRUE((tick & (kCheckpointStride - 1)) != 0)) return false;
    return Probe();
  }

  /// Full probe: cancellation, deadline, memory budget, fault injection
  /// (first tripped reason wins and is sticky). Use directly in coarse
  /// outer loops (once per dichromatic network, per binary-search step).
  bool Probe();

  /// Whether an interrupt has been recorded (no side effects).
  bool Interrupted() const {
    return reason_.load(std::memory_order_acquire) != InterruptReason::kNone;
  }
  InterruptReason reason() const {
    return reason_.load(std::memory_order_acquire);
  }
  /// InterruptStatus(reason()).
  Status status() const { return InterruptStatus(reason()); }

 private:
  void Interrupt(InterruptReason reason);

  Deadline deadline_;
  MemoryBudget memory_;
  CancellationToken cancel_;
  std::atomic<uint64_t> ticks_{0};
  std::atomic<InterruptReason> reason_{InterruptReason::kNone};
  // Fault injection: a probe trips when its SplitMix64 draw falls below
  // fault_threshold_ (probability scaled to 2^64; 0 == disarmed).
  std::atomic<uint64_t> fault_state_{0};
  uint64_t fault_threshold_ = 0;
};

/// Resolves the governor for one solver call: yields the caller-supplied
/// shared context when present, otherwise a local unlimited context. The
/// local context still probes MBC_FAULT_INJECT, so every interrupt check
/// goes through a single ExecutionContext either way.
class ExecutionScope {
 public:
  explicit ExecutionScope(ExecutionContext* shared)
      : exec_(shared != nullptr ? shared : &local_) {}

  ExecutionScope(const ExecutionScope&) = delete;
  ExecutionScope& operator=(const ExecutionScope&) = delete;

  ExecutionContext* get() { return exec_; }
  ExecutionContext* operator->() { return exec_; }

 private:
  ExecutionContext local_;
  ExecutionContext* exec_;
};

}  // namespace mbc

#endif  // MBC_COMMON_EXECUTION_H_
