// Copyright 2026 The balanced-clique Authors.
//
// Chase–Lev work-stealing deque for the intra-query parallel MBC* engine.
// Each worker owns one deque: the owner pushes and pops subproblem
// descriptors at the bottom (LIFO, so a worker dives depth-first through
// the frontier it just split), while idle workers steal from the top
// (FIFO, so thieves take the oldest — typically largest — subproblems).
//
// The implementation follows Chase & Lev (SPAA'05) / Lê et al. (PPoPP'13)
// with one deliberate deviation: `top_` and `bottom_` use seq_cst
// operations instead of the fence-based weak orderings. ThreadSanitizer
// does not model standalone fences (the fence idiom produces false
// positives in the TSan CI leg), and the deque moves whole ego-network
// subproblems — descriptor transfer cost dwarfs a seq_cst barrier. Ring
// slots are relaxed atomics: element visibility is carried by the seq_cst
// accesses on the indices.
//
// The ring grows on demand (owner only). Retired rings are kept until the
// deque is destroyed: a thief racing a grow may still read its element
// from the old ring, and for any index in [top, bottom) the old ring holds
// the same value the new ring does (the owner never writes a retired ring
// again), so the race is benign by value as well as by happens-before.
#ifndef MBC_CORE_WORK_STEAL_H_
#define MBC_CORE_WORK_STEAL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/common/logging.h"

namespace mbc {

/// Single-owner, multi-thief deque. T must be trivially copyable (the
/// schedulers store task pointers); slots are read concurrently and a
/// losing thief's read is discarded, so T must tolerate being copied while
/// logically owned elsewhere — trivial copies do.
template <typename T>
class WorkStealingDeque {
  static_assert(std::is_trivially_copyable_v<T>,
                "deque elements race benignly only if trivially copyable");

 public:
  explicit WorkStealingDeque(size_t initial_capacity = 64)
      : ring_(new Ring(RoundUpPow2(initial_capacity))) {
    retired_.reserve(8);
  }
  ~WorkStealingDeque() { delete ring_.load(std::memory_order_relaxed); }
  WorkStealingDeque(const WorkStealingDeque&) = delete;
  WorkStealingDeque& operator=(const WorkStealingDeque&) = delete;

  /// Owner only: enqueue at the bottom.
  void Push(T item) {
    const int64_t b = bottom_.load(std::memory_order_relaxed);
    const int64_t t = top_.load(std::memory_order_acquire);
    Ring* ring = ring_.load(std::memory_order_relaxed);
    if (b - t >= static_cast<int64_t>(ring->capacity)) {
      ring = Grow(ring, t, b);
    }
    ring->Put(b, item);
    bottom_.store(b + 1, std::memory_order_seq_cst);
  }

  /// Owner only: dequeue at the bottom (the most recently pushed item).
  bool Pop(T* out) {
    const int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Ring* ring = ring_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_seq_cst);
    int64_t t = top_.load(std::memory_order_seq_cst);
    if (t <= b) {
      T item = ring->Get(b);
      if (t == b) {
        // Last element: race the thieves for it.
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
          bottom_.store(b + 1, std::memory_order_seq_cst);
          return false;  // a thief won
        }
        bottom_.store(b + 1, std::memory_order_seq_cst);
      }
      *out = item;
      return true;
    }
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return false;
  }

  /// Any thread: dequeue at the top (the oldest item). Returns false when
  /// the deque looks empty or the thief lost a race (callers treat both as
  /// "try elsewhere").
  bool Steal(T* out) {
    int64_t t = top_.load(std::memory_order_seq_cst);
    const int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return false;
    Ring* ring = ring_.load(std::memory_order_acquire);
    T item = ring->Get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;
    }
    *out = item;
    return true;
  }

  /// Approximate (racy) size — scheduling heuristics and tests only.
  size_t SizeApprox() const {
    const int64_t b = bottom_.load(std::memory_order_relaxed);
    const int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<size_t>(b - t) : 0;
  }

  /// Current ring capacity (tests: growth behavior).
  size_t capacity() const {
    return ring_.load(std::memory_order_relaxed)->capacity;
  }

 private:
  struct Ring {
    explicit Ring(size_t cap)
        : capacity(cap), mask(cap - 1), slots(new std::atomic<T>[cap]) {}
    const size_t capacity;
    const size_t mask;
    std::unique_ptr<std::atomic<T>[]> slots;

    T Get(int64_t i) const {
      return slots[static_cast<size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
    void Put(int64_t i, T item) {
      slots[static_cast<size_t>(i) & mask].store(item,
                                                 std::memory_order_relaxed);
    }
  };

  static size_t RoundUpPow2(size_t n) {
    size_t cap = 2;
    while (cap < n) cap <<= 1;
    return cap;
  }

  /// Owner only: doubles the ring, copying the live range [t, b).
  Ring* Grow(Ring* old_ring, int64_t t, int64_t b) {
    Ring* bigger = new Ring(old_ring->capacity * 2);
    for (int64_t i = t; i < b; ++i) bigger->Put(i, old_ring->Get(i));
    ring_.store(bigger, std::memory_order_release);
    // Thieves may still hold the old ring; retire it until destruction.
    retired_.emplace_back(old_ring);
    return bigger;
  }

  std::atomic<int64_t> top_{0};
  std::atomic<int64_t> bottom_{0};
  std::atomic<Ring*> ring_;
  /// Owner-only (Grow is owner-only, destruction is single-threaded).
  std::vector<std::unique_ptr<Ring>> retired_;
};

}  // namespace mbc

#endif  // MBC_CORE_WORK_STEAL_H_
