// Host-thread emulation of the Tera MTA's full/empty-bit variables.
//
// SyncVar<T> is a single variable with a full/empty state: `put` blocks
// until EMPTY then fills; `take` blocks until FULL then empties. This is the
// exact word-level protocol of src/mta/sync_memory.hpp, realized with a
// mutex and condition variable so real programs (examples, tests, the
// fine-grained benchmark variants) can use the same idioms the paper's MTA
// codes used.
#pragma once

#include <condition_variable>
#include <mutex>
#include <optional>
#include <utility>

namespace tc3i::sthreads {

template <typename T>
class SyncVar {
 public:
  SyncVar() = default;

  /// Constructs already-FULL with `value` (like store_full initialization).
  explicit SyncVar(T value) : value_(std::move(value)), full_(true) {}

  SyncVar(const SyncVar&) = delete;
  SyncVar& operator=(const SyncVar&) = delete;

  /// Blocks until EMPTY, writes, marks FULL.
  void put(T value) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_empty_.wait(lock, [&] { return !full_; });
    value_ = std::move(value);
    full_ = true;
    cv_full_.notify_one();
  }

  /// Blocks until FULL, reads, marks EMPTY.
  T take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_full_.wait(lock, [&] { return full_; });
    full_ = false;
    cv_empty_.notify_one();
    return std::move(value_);
  }

  /// Blocks until FULL, reads without emptying (Tera's future-touch reads
  /// leave the cell full for other readers).
  T read() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_full_.wait(lock, [&] { return full_; });
    return value_;
  }

  /// Non-blocking take.
  std::optional<T> try_take() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!full_) return std::nullopt;
    full_ = false;
    cv_empty_.notify_one();
    return std::move(value_);
  }

  /// Non-blocking put.
  bool try_put(T value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (full_) return false;
    value_ = std::move(value);
    full_ = true;
    cv_full_.notify_one();
    return true;
  }

  /// Atomic read-modify-write: blocks until FULL, applies `f` to the value
  /// in place (cell is logically EMPTY during f, exactly the MTA
  /// fetch-op-store idiom), refills, returns the *previous* value.
  template <typename F>
  T update(F&& f) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_full_.wait(lock, [&] { return full_; });
    T previous = value_;
    f(value_);
    cv_full_.notify_one();  // still full; wake readers racing on state
    return previous;
  }

  [[nodiscard]] bool is_full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return full_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_full_;
  std::condition_variable cv_empty_;
  T value_{};
  bool full_ = false;
};

/// A shared counter with MTA-counter semantics: fetch_add is one atomic
/// full/empty round-trip. Used by the fine-grained Threat Analysis variant
/// to claim slots in the shared intervals array.
class SyncCounter {
 public:
  explicit SyncCounter(long initial = 0);

  /// Atomically adds `delta` and returns the pre-add value.
  long fetch_add(long delta);

  [[nodiscard]] long value() const;

 private:
  mutable std::mutex mu_;
  long value_;
};

}  // namespace tc3i::sthreads
