// Copyright 2026 The balanced-clique Authors.
//
// Unit tests for the execution governor: deadline semantics, sticky
// first-reason-wins interrupts, checkpoint amortization, deterministic
// fault injection, and ExecutionScope (shared context, else a local one).
#include "src/common/execution.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/memory.h"

namespace mbc {
namespace {

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline deadline;
  EXPECT_TRUE(deadline.IsInfinite());
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingSeconds(), 1e18);
}

TEST(DeadlineTest, ZeroBudgetIsAlreadyExpired) {
  EXPECT_TRUE(Deadline::After(0.0).Expired());
  EXPECT_TRUE(Deadline::After(-1.0).Expired());
}

TEST(DeadlineTest, HugeBudgetSaturatesToInfinite) {
  EXPECT_TRUE(Deadline::After(1e300).IsInfinite());
}

TEST(DeadlineTest, FutureDeadlineNotExpired) {
  const Deadline deadline = Deadline::After(3600.0);
  EXPECT_FALSE(deadline.Expired());
  EXPECT_GT(deadline.RemainingSeconds(), 3500.0);
  EXPECT_LT(deadline.RemainingSeconds(), 3601.0);
}

TEST(ExecutionContextTest, FreshContextIsNotInterrupted) {
  ExecutionContext exec;
  EXPECT_FALSE(exec.Interrupted());
  EXPECT_EQ(exec.reason(), InterruptReason::kNone);
  EXPECT_TRUE(exec.status().ok());
  EXPECT_FALSE(exec.Probe());
}

TEST(ExecutionContextTest, ExpiredDeadlineInterruptsAtSetTime) {
  // The zero-budget guarantee: no checkpoint needs to run for the
  // interrupt to be recorded.
  ExecutionContext exec(Deadline::After(0.0));
  EXPECT_TRUE(exec.Interrupted());
  EXPECT_EQ(exec.reason(), InterruptReason::kDeadline);
  EXPECT_TRUE(exec.status().IsDeadlineExceeded());
}

TEST(ExecutionContextTest, CancellationWinsAndIsSticky) {
  ExecutionContext exec;
  exec.RequestCancel();
  EXPECT_TRUE(exec.Probe());
  EXPECT_EQ(exec.reason(), InterruptReason::kCancelled);
  // A later deadline expiry must not overwrite the first reason.
  exec.set_deadline(Deadline::After(0.0));
  EXPECT_TRUE(exec.Probe());
  EXPECT_EQ(exec.reason(), InterruptReason::kCancelled);
  EXPECT_TRUE(exec.status().IsCancelled());
}

TEST(ExecutionContextTest, CheckpointProbesOnFirstCallThenAmortizes) {
  ExecutionContext exec;
  // First call probes (and finds nothing); the next stride-1 calls are
  // cheap ticks even after cancellation is requested mid-stride...
  EXPECT_FALSE(exec.Checkpoint());
  exec.RequestCancel();
  // ...except Checkpoint short-circuits on an already-recorded interrupt,
  // which has not happened yet. The cancellation is observed at the next
  // full probe, at most kCheckpointStride calls later.
  uint64_t calls = 1;
  while (!exec.Checkpoint()) {
    ++calls;
    ASSERT_LE(calls, ExecutionContext::kCheckpointStride + 1);
  }
  EXPECT_EQ(exec.reason(), InterruptReason::kCancelled);
  // Once interrupted, every subsequent checkpoint returns true.
  EXPECT_TRUE(exec.Checkpoint());
}

TEST(ExecutionContextTest, MemoryBudgetTripsOnTrackerGrowth) {
  MemoryTracker tracker;
  tracker.Add(2 * 1024 * 1024);
  ExecutionContext exec;
  exec.set_memory_budget(
      MemoryBudget(1024 * 1024, &tracker, /*include_rss=*/false));
  EXPECT_TRUE(exec.Probe());
  EXPECT_EQ(exec.reason(), InterruptReason::kMemoryBudget);
  tracker.Sub(2 * 1024 * 1024);
}

TEST(ExecutionContextTest, FaultInjectionIsDeterministicPerSeed) {
  auto probes_until_trip = [](uint64_t seed) {
    ExecutionContext exec;
    exec.ArmFaultInjection(0.05, seed);
    int probes = 0;
    while (!exec.Probe()) {
      ++probes;
      if (probes > 10000) break;
    }
    EXPECT_EQ(exec.reason(), InterruptReason::kInjectedFault);
    return probes;
  };
  const int first = probes_until_trip(42);
  EXPECT_EQ(first, probes_until_trip(42));
  // Certainty-probability faults trip on the very first probe.
  ExecutionContext always;
  always.ArmFaultInjection(1.0, 7);
  EXPECT_TRUE(always.Probe());
  EXPECT_EQ(always.reason(), InterruptReason::kInjectedFault);
}

TEST(ExecutionContextTest, DisarmedFaultInjectionNeverTrips) {
  ExecutionContext exec;
  exec.ArmFaultInjection(1.0, 1);
  exec.DisarmFaultInjection();
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(exec.Probe());
}

TEST(ExecutionContextTest, CrossThreadCancelIsObserved) {
  ExecutionContext exec;
  std::thread canceller([&exec] { exec.RequestCancel(); });
  canceller.join();
  EXPECT_TRUE(exec.Probe());
  EXPECT_EQ(exec.reason(), InterruptReason::kCancelled);
}

TEST(ExecutionContextTest, ConcurrentProbesRecordExactlyOneReason) {
  ExecutionContext exec;
  exec.RequestCancel();
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&exec] {
      for (int i = 0; i < 1000; ++i) EXPECT_TRUE(exec.Checkpoint());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(exec.reason(), InterruptReason::kCancelled);
}

TEST(ExecutionScopeTest, PrefersSharedContext) {
  ExecutionContext shared;
  shared.RequestCancel();
  ExecutionScope scope(&shared);
  EXPECT_EQ(scope.get(), &shared);
  EXPECT_TRUE(scope->Probe());
  EXPECT_EQ(scope->reason(), InterruptReason::kCancelled);
}

TEST(ExecutionScopeTest, NullContextYieldsUnlimitedLocal) {
  ExecutionScope scope(nullptr);
  ASSERT_NE(scope.get(), nullptr);
  EXPECT_FALSE(scope->Probe());
  EXPECT_EQ(scope->reason(), InterruptReason::kNone);
  EXPECT_TRUE(scope->deadline().IsInfinite());
  EXPECT_TRUE(scope->memory_budget().Unlimited());
}

TEST(InterruptReasonTest, NamesAndStatusMapping) {
  EXPECT_STREQ(InterruptReasonName(InterruptReason::kNone), "none");
  EXPECT_STREQ(InterruptReasonName(InterruptReason::kDeadline), "deadline");
  EXPECT_STREQ(InterruptReasonName(InterruptReason::kCancelled), "cancelled");
  EXPECT_STREQ(InterruptReasonName(InterruptReason::kMemoryBudget),
               "memory-budget");
  EXPECT_STREQ(InterruptReasonName(InterruptReason::kInjectedFault),
               "injected-fault");
  EXPECT_TRUE(InterruptStatus(InterruptReason::kNone).ok());
  EXPECT_TRUE(InterruptStatus(InterruptReason::kCancelled).IsCancelled());
  EXPECT_TRUE(
      InterruptStatus(InterruptReason::kInjectedFault).IsCancelled());
  EXPECT_TRUE(
      InterruptStatus(InterruptReason::kDeadline).IsDeadlineExceeded());
  EXPECT_FALSE(
      InterruptStatus(InterruptReason::kDeadline).IsResourceExhausted());
  EXPECT_TRUE(
      InterruptStatus(InterruptReason::kMemoryBudget).IsResourceExhausted());
}

}  // namespace
}  // namespace mbc
