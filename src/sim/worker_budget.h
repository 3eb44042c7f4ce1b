// Process-global worker-thread budget, and the shard fan-out that draws on it.
//
// Two layers of the stack want to spawn threads: cloud::run_sweep fans
// independent experiments across a pool, and run_shards fans one
// experiment's independent shard slices across workers. Sized independently
// from hardware_concurrency they multiply (sweep threads x shard workers)
// and oversubscribe the machine. The budget is a single shared token pool:
// every *extra* thread (beyond the caller, which always works for free)
// must be acquired from it, so sweep-level and shard-level parallelism
// together never exceed the configured capacity.
//
// Grants are best-effort: acquire(want) returns anywhere in [0, want] and
// the caller runs the un-granted share on its own thread. Parallelism is a
// pure wall-clock concern — virtual-time results never depend on how many
// tokens were granted.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

namespace hm::sim {

class WorkerBudget {
 public:
  /// The process-wide budget. Capacity defaults to hardware_concurrency-1
  /// (the calling thread is not counted — it always participates).
  static WorkerBudget& instance();

  /// Construct a standalone budget (tests).
  explicit WorkerBudget(unsigned capacity) : capacity_(capacity), available_(capacity) {}

  unsigned capacity() const noexcept { return capacity_; }
  unsigned available() const noexcept {
    const long a = available_.load(std::memory_order_relaxed);
    return a > 0 ? static_cast<unsigned>(a) : 0u;
  }

  /// Re-seed the pool (tests / --threads overrides). Only safe while no
  /// tokens are outstanding.
  void set_capacity(unsigned cap) noexcept {
    capacity_ = cap;
    available_.store(static_cast<long>(cap), std::memory_order_relaxed);
  }

  /// Take up to `want` tokens; returns the number granted (possibly 0).
  unsigned acquire(unsigned want) noexcept {
    if (want == 0) return 0;
    long cur = available_.load(std::memory_order_relaxed);
    for (;;) {
      if (cur <= 0) return 0;
      const long grant = cur < static_cast<long>(want) ? cur : static_cast<long>(want);
      if (available_.compare_exchange_weak(cur, cur - grant, std::memory_order_acq_rel,
                                           std::memory_order_relaxed))
        return static_cast<unsigned>(grant);
    }
  }

  /// Return `n` previously acquired tokens.
  void release(unsigned n) noexcept {
    if (n) available_.fetch_add(static_cast<long>(n), std::memory_order_acq_rel);
  }

 private:
  unsigned capacity_;
  std::atomic<long> available_;
};

/// RAII grant: acquires up to `want` tokens, releases them on destruction.
class WorkerGrant {
 public:
  WorkerGrant(WorkerBudget& budget, unsigned want) noexcept
      : budget_(budget), granted_(budget.acquire(want)) {}
  ~WorkerGrant() { budget_.release(granted_); }
  WorkerGrant(const WorkerGrant&) = delete;
  WorkerGrant& operator=(const WorkerGrant&) = delete;
  unsigned granted() const noexcept { return granted_; }

 private:
  WorkerBudget& budget_;
  unsigned granted_;
};

/// Run body(0..shards-1) over independent shard slices. Workers claim shard
/// indices from a shared counter; the caller always participates, plus up
/// to (shards-1) threads granted by the process budget. Slices never
/// communicate, so any number of threads (including just the caller)
/// produces the same per-shard results. Returns the threads used, caller
/// included.
unsigned run_shards(std::uint32_t shards, const std::function<void(std::uint32_t)>& body);

}  // namespace hm::sim
