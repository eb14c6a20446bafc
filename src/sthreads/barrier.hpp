// A reusable cyclic barrier (generation-counted), used by benchmark variants
// that proceed in phases and by the property tests.
#pragma once

#include <condition_variable>
#include <mutex>

namespace tc3i::sthreads {

class Barrier {
 public:
  explicit Barrier(int parties);

  /// Blocks until `parties` threads have arrived. Returns true for exactly
  /// one thread per generation (the "serial" thread, useful for per-phase
  /// bookkeeping).
  bool arrive_and_wait();

  [[nodiscard]] int parties() const { return parties_; }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int parties_;
  int waiting_ = 0;
  unsigned long generation_ = 0;
};

}  // namespace tc3i::sthreads
