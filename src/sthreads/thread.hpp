// Structured multithreading primitives in the spirit of the Caltech
// Sthreads library the paper used on the Pentium Pro platform: plain
// threads, mutexes and spin locks with RAII guards.
//
// These run real host threads; the C3I benchmark variants execute on them
// natively so the parallelizations are tested for actual correctness, not
// only replayed through the machine models.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/context.hpp"
#include "sthreads/critpath.hpp"

namespace tc3i::sthreads {

/// A joinable thread that joins on destruction (no detached threads; every
/// sthread has a structured lifetime, hence the library's name).
class Thread {
 public:
  Thread() = default;
  /// The new thread runs under a copy of the creator's obs::Context, so a
  /// sweep point's forked registry, stores and scenario label reach nested
  /// fork/join. Under an active critical-path capture the body is
  /// additionally wrapped so spawn and join become dependency edges
  /// (cap::wrap_thread).
  explicit Thread(std::function<void()> fn)
      : cap_final_(cap::make_final_slot()),
        impl_([ctx = obs::current_context(),
               body = cap::wrap_thread(std::move(fn), cap_final_)]() mutable {
          const obs::ScopedContext scope(std::move(ctx));
          body();
        }) {}

  Thread(Thread&&) = default;
  Thread& operator=(Thread&& other) {
    join();
    cap_final_ = std::move(other.cap_final_);
    impl_ = std::move(other.impl_);
    return *this;
  }
  Thread(const Thread&) = delete;
  Thread& operator=(const Thread&) = delete;

  ~Thread() { join(); }

  void join() {
    if (impl_.joinable()) {
      if (cap_final_ != nullptr) cap::wait_begin();
      impl_.join();
      if (cap_final_ != nullptr) {
        cap::joined(*cap_final_);
        cap_final_.reset();
      }
    }
  }

  [[nodiscard]] bool joinable() const { return impl_.joinable(); }

  static unsigned hardware_concurrency() {
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
  }

 private:
  std::shared_ptr<cap::NodeRef> cap_final_;  ///< child's last chain node
  std::thread impl_;                         ///< after cap_final_: the body
                                             ///< captures the live slot
};

/// Launches `count` threads running `fn(thread_index)` and joins them all
/// before returning — the basic fork/join block.
void fork_join(int count, const std::function<void(int)>& fn);

using Mutex = std::mutex;
using LockGuard = std::lock_guard<std::mutex>;

/// A test-and-test-and-set spin lock (short critical sections, e.g. the
/// per-block locks in coarse-grained Terrain Masking).
class SpinLock {
 public:
  void lock() {
    const bool capturing = cap::enabled();
    if (capturing) cap::wait_begin();
    while (flag_.test_and_set(std::memory_order_acquire)) {
      while (flag_.test(std::memory_order_relaxed)) {
      }
    }
    // The acquire edge depends on the previous release (cap_rel_ is
    // written before the flag is cleared, so the acquire above orders it).
    if (capturing) cap::sync_event(&cap_rel_, nullptr);
  }
  bool try_lock() {
    if (flag_.test_and_set(std::memory_order_acquire)) return false;
    if (cap::enabled()) cap::sync_event(&cap_rel_, nullptr);
    return true;
  }
  void unlock() {
    if (cap::enabled()) cap_rel_ = cap::checkpoint();
    flag_.clear(std::memory_order_release);
  }

 private:
  std::atomic_flag flag_ = ATOMIC_FLAG_INIT;
  cap::NodeRef cap_rel_;  ///< release point the next acquire hangs off
};

}  // namespace tc3i::sthreads
