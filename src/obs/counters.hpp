// Always-on instrumentation counters shared by both machine models.
//
// A CounterRegistry maps hierarchical dotted names ("mta.issue.total",
// "smp.lock.contended") to one of three metric kinds:
//   - Counter:   monotonically increasing u64 (relaxed atomic add),
//   - Gauge:     last-written double,
//   - Histogram: log-bucketed value distribution with percentile queries.
// Metric objects have stable addresses for the registry's lifetime, so hot
// paths resolve a name once (typically at machine construction) and then
// increment through a raw pointer — cheap enough to leave on in every run.
//
// default_registry() — the calling thread's obs::Context registry — is what
// the machine models and the sthreads library write into; bench RunReports
// snapshot it at exit.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

namespace tc3i::obs {

/// Monotonically increasing event count. Thread-safe (relaxed).
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value. Thread-safe (relaxed).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution of non-negative samples in logarithmic buckets (8 buckets
/// per octave, so percentile estimates carry <= ~7% relative error).
class Histogram {
 public:
  void record(double value);

  /// Adds every sample recorded in `other` (bucket-wise; min/max/sum/count
  /// combine exactly).
  void merge_from(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] double sum() const;
  [[nodiscard]] double min() const;  ///< 0 when empty
  [[nodiscard]] double max() const;  ///< 0 when empty
  /// Bucket-midpoint estimate of percentile `p` in [0, 100]; 0 when empty.
  [[nodiscard]] double percentile(double p) const;

  /// Discards all recorded samples.
  void reset();

 private:
  // Exponent range [-64, 96) at 8 sub-buckets per octave; values outside
  // clamp to the end buckets, value <= 0 lands in bucket 0.
  static constexpr int kSubBuckets = 8;
  static constexpr int kMinExp = -64;
  static constexpr int kMaxExp = 96;
  static constexpr std::size_t kBuckets =
      static_cast<std::size_t>((kMaxExp - kMinExp) * kSubBuckets + 1);

  static std::size_t bucket_of(double value);
  static double bucket_mid(std::size_t idx);

  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One registry entry, exposed for reports and tests.
struct MetricSnapshot {
  enum class Kind : std::uint8_t { Counter, Gauge, Histogram };
  std::string name;
  Kind kind = Kind::Counter;
  std::uint64_t count = 0;  ///< counter value / histogram sample count
  double value = 0.0;       ///< gauge value / histogram sum
  double p50 = 0.0, p90 = 0.0, p99 = 0.0, max = 0.0;  ///< histogram only
};

/// Named metric store. Names are dotted lowercase ([a-z0-9_.]); registering
/// an existing name with a different kind is a contract violation.
class CounterRegistry {
 public:
  CounterRegistry() = default;
  CounterRegistry(const CounterRegistry&) = delete;
  CounterRegistry& operator=(const CounterRegistry&) = delete;

  /// Get-or-create. Returned references stay valid for the registry's
  /// lifetime (entries are never removed).
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Zeroes every counter/gauge and clears every histogram without
  /// invalidating outstanding references (entries stay registered).
  void reset_values();

  /// Name-sorted snapshot of every metric.
  [[nodiscard]] std::vector<MetricSnapshot> snapshot() const;

  /// Folds another registry's metrics into this one (get-or-create by
  /// name): counters add, gauges take the other's value (last write wins,
  /// matching serial execution order when callers merge in submission
  /// order), histograms merge bucket-wise. The registries must be distinct
  /// and must not be concurrently merged in the opposite direction.
  void merge_from(const CounterRegistry& other);

 private:
  using Metric = std::variant<std::unique_ptr<Counter>, std::unique_ptr<Gauge>,
                              std::unique_ptr<Histogram>>;

  static void check_name(const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, Metric> metrics_;
};

/// The registry built-in instrumentation writes to: the calling thread's
/// obs::Context registry (context.hpp). Hot paths resolve metric pointers
/// once per machine construction, so the lookup is off the
/// per-instruction path.
[[nodiscard]] CounterRegistry& default_registry();

/// RAII wall-clock phase timer: records elapsed seconds into a histogram
/// on destruction. Used around run()/build phases.
class Scope {
 public:
  explicit Scope(Histogram& sink);
  Scope(CounterRegistry& registry, const std::string& name);
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope();

 private:
  Histogram& sink_;
  std::uint64_t start_ns_;
};

}  // namespace tc3i::obs
