// Progress doorbell + adaptive spin-then-park backoff for the threaded
// runtime. Every protocol event (content put, flag, address package,
// mailbox consumption, task completion) rings the doorbell; blocked states
// spin briefly and then park on it instead of yield-thrashing, which is
// what keeps runs with num_procs > hardware_concurrency from degrading.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace rapid {

/// Busy-wait hint: cheaper than yield(), keeps the core but releases
/// pipeline resources to a hyperthread sibling.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Saturating arithmetic for deadline/budget math derived from retry
/// policies. Callers may configure max_attempts x multiplier products whose
/// exact sum exceeds int64 microseconds (centuries); the budgets derived
/// from them must clamp, not wrap into the past.
inline std::int64_t sat_add_i64(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_add_overflow(a, b, &r)) {
    return (a > 0) ? INT64_MAX : INT64_MIN;
  }
  return r;
}

inline std::int64_t sat_mul_i64(std::int64_t a, std::int64_t b) {
  std::int64_t r = 0;
  if (__builtin_mul_overflow(a, b, &r)) {
    return ((a > 0) == (b > 0)) ? INT64_MAX : INT64_MIN;
  }
  return r;
}

/// Abstract progress bell: the doorbell handshake contract (see Doorbell)
/// independent of the wakeup primitive. The threaded backend parks on a
/// condition variable; the shared-memory backend parks on a futex word in
/// the control segment. Blocked protocol states only ever talk to this
/// interface.
class Bell {
 public:
  virtual ~Bell() = default;
  virtual std::uint64_t value() const = 0;
  virtual void ring() = 0;
  /// Parks until value() != seen or `timeout_us` elapses; returns whether
  /// the counter moved past `seen`. Spurious wakeups are allowed.
  virtual bool wait(std::uint64_t seen, std::int64_t timeout_us) = 0;
};

/// A monotonically increasing event counter with a condition variable
/// attached. ring() is wait-free on the fast path (no sleepers): one
/// fetch_add plus one load. wait(seen, ...) blocks until the counter has
/// moved past `seen` or the timeout elapses; it never blocks if the counter
/// already moved, and a ring can never be lost between the caller's
/// predicate check and the park as long as `seen` was read *before* the
/// predicate (see docs/RUNTIME.md, "Doorbell handshake").
class Doorbell final : public Bell {
 public:
  std::uint64_t value() const override {
    return count_.load(std::memory_order_acquire);
  }

  /// Publishes one unit of progress and wakes any sleepers. The counter
  /// increment and the sleeper check are both seq_cst so they cannot
  /// reorder against a waiter's (register-sleeper, re-check-counter) pair:
  /// either the waiter sees the new count and skips the park, or this ring
  /// sees the sleeper and notifies.
  void ring() override {
    count_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) != 0) {
      // Taking the mutex (even empty) orders this notify after any waiter
      // that has re-checked the counter under the lock but not yet parked.
      { std::lock_guard<std::mutex> lock(m_); }
      cv_.notify_all();
    }
  }

  /// Parks until value() != seen, `timeout_us` elapses, or a spurious
  /// wakeup. Callers re-check their own predicate afterwards regardless.
  /// Returns whether the counter moved past `seen` (i.e. the wakeup carried
  /// progress); false means a pure timeout or spurious wakeup.
  bool wait(std::uint64_t seen, std::int64_t timeout_us) override {
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(m_);
      if (count_.load(std::memory_order_seq_cst) == seen) {
        cv_.wait_for(lock, std::chrono::microseconds(timeout_us));
      }
    }
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return count_.load(std::memory_order_acquire) != seen;
  }

 private:
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int32_t> sleepers_{0};
  std::mutex m_;
  std::condition_variable cv_;
};

/// Bounded re-request (NACK) schedule for the threaded runtime's recovery
/// layer: a waiter whose per-wait deadline expires re-requests the message
/// it is missing instead of parking forever, with exponentially growing
/// deadlines. max_attempts == 0 disables recovery entirely (the PR 3
/// fail-stop behavior). All deadlines derived from this policy are
/// steady_clock-based — wall-clock jumps can neither starve nor spuriously
/// fire a retry.
struct RetryPolicy {
  /// Re-requests per wait before escalating to ProtocolDeadlockError.
  std::int32_t max_attempts = 0;
  /// Deadline before the first re-request (µs).
  std::int64_t base_delay_us = 2000;
  /// Deadline growth factor per attempt.
  double multiplier = 2.0;

  bool enabled() const { return max_attempts > 0; }

  /// Deadline for attempt k (1-based): base * multiplier^(k-1), µs.
  std::int64_t delay_us(std::int32_t attempt) const;

  /// Sum of every deadline: how long a single wait may stay unsatisfied
  /// before its retries exhaust. The stall monitor scales its watchdog
  /// budget by this so in-flight recovery is never misdiagnosed as a
  /// genuine deadlock. Saturates at INT64_MAX for absurd
  /// max_attempts x multiplier products instead of wrapping negative.
  std::int64_t total_wait_us() const;

  /// Default recovery tuning for tests and the bench --recovery mode.
  static RetryPolicy standard() { return RetryPolicy{4, 1500, 2.0}; }
};

/// Per-blocked-state policy: the first half of the spin budget issues
/// cpu_relax(), the second half yields, and past the budget the caller
/// parks on the doorbell. reset() after every unit of local progress so a
/// processor that is actively draining work never pays a park.
class Backoff {
 public:
  Backoff(Bell& bell, std::int32_t spin_iters, std::int64_t park_timeout_us)
      : bell_(bell),
        spin_iters_(spin_iters),
        park_timeout_us_(park_timeout_us) {}

  /// One blocked iteration. `seen` must be a doorbell value read before
  /// the caller's last (failed) predicate check.
  void pause(std::uint64_t seen);

  void reset() { attempts_ = 0; }

  std::int64_t parks() const { return parks_; }

 private:
  Bell& bell_;
  std::int32_t spin_iters_;
  std::int64_t park_timeout_us_;
  std::int32_t attempts_ = 0;
  std::int64_t parks_ = 0;
};

}  // namespace rapid
