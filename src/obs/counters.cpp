#include "obs/counters.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "core/contracts.hpp"

namespace tc3i::obs {

// --- Histogram ---------------------------------------------------------------

std::size_t Histogram::bucket_of(double value) {
  if (!(value > 0.0)) return 0;
  int exp = 0;
  const double frac = std::frexp(value, &exp);  // frac in [0.5, 1)
  exp = std::clamp(exp, kMinExp, kMaxExp - 1);
  const int sub = std::clamp(
      static_cast<int>((frac - 0.5) * 2.0 * kSubBuckets), 0, kSubBuckets - 1);
  return static_cast<std::size_t>((exp - kMinExp) * kSubBuckets + sub) + 1;
}

double Histogram::bucket_mid(std::size_t idx) {
  if (idx == 0) return 0.0;
  const std::size_t linear = idx - 1;
  const int exp = static_cast<int>(linear / kSubBuckets) + kMinExp;
  const int sub = static_cast<int>(linear % kSubBuckets);
  const double lo = 0.5 + 0.5 * static_cast<double>(sub) / kSubBuckets;
  const double hi = 0.5 + 0.5 * static_cast<double>(sub + 1) / kSubBuckets;
  return std::ldexp((lo + hi) / 2.0, exp);
}

void Histogram::record(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket_of(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

double Histogram::percentile(double p) const {
  TC3I_EXPECTS(p >= 0.0 && p <= 100.0);
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) return 0.0;
  // The extremes are tracked exactly; only interior percentiles carry
  // bucket-resolution error.
  if (p <= 0.0) return min_;
  if (p >= 100.0) return max_;
  // Rank of the sample that p percent of the distribution lies at or below.
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    seen += buckets_[b];
    if (seen >= rank && seen > 0) {
      // Clamp the estimate to the observed range so p0/p100 are exact-ish.
      return std::clamp(bucket_mid(b), min_, max_);
    }
  }
  return max_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

void Histogram::merge_from(const Histogram& other) {
  TC3I_EXPECTS(&other != this);
  std::scoped_lock lock(mu_, other.mu_);
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < buckets_.size(); ++b)
    buckets_[b] += other.buckets_[b];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

// --- CounterRegistry ---------------------------------------------------------

void CounterRegistry::check_name(const std::string& name) {
  bool ok = !name.empty() && name.front() != '.' && name.back() != '.';
  char prev = '\0';
  for (const char c : name) {
    const bool valid =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!valid || (c == '.' && prev == '.')) ok = false;
    prev = c;
  }
  if (!ok)
    contract_failure("Metric name ([a-z0-9_.], dotted)", name.c_str(),
                     __FILE__, __LINE__);
}

Counter& CounterRegistry::counter(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end())
    it = metrics_.emplace(name, std::make_unique<Counter>()).first;
  auto* held = std::get_if<std::unique_ptr<Counter>>(&it->second);
  if (held == nullptr)
    contract_failure("Metric registered with a different kind", name.c_str(),
                     __FILE__, __LINE__);
  return **held;
}

Gauge& CounterRegistry::gauge(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end())
    it = metrics_.emplace(name, std::make_unique<Gauge>()).first;
  auto* held = std::get_if<std::unique_ptr<Gauge>>(&it->second);
  if (held == nullptr)
    contract_failure("Metric registered with a different kind", name.c_str(),
                     __FILE__, __LINE__);
  return **held;
}

Histogram& CounterRegistry::histogram(const std::string& name) {
  check_name(name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end())
    it = metrics_.emplace(name, std::make_unique<Histogram>()).first;
  auto* held = std::get_if<std::unique_ptr<Histogram>>(&it->second);
  if (held == nullptr)
    contract_failure("Metric registered with a different kind", name.c_str(),
                     __FILE__, __LINE__);
  return **held;
}

bool CounterRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.contains(name);
}

std::size_t CounterRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

void CounterRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, metric] : metrics_) {
    if (auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
      (*c)->reset();
    } else if (auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
      (*g)->set(0.0);
    } else if (auto* h = std::get_if<std::unique_ptr<Histogram>>(&metric)) {
      (*h)->reset();
    }
  }
}

std::vector<MetricSnapshot> CounterRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSnapshot> out;
  out.reserve(metrics_.size());
  for (const auto& [name, metric] : metrics_) {
    MetricSnapshot s;
    s.name = name;
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(&metric)) {
      s.kind = MetricSnapshot::Kind::Counter;
      s.count = (*c)->value();
      s.value = static_cast<double>(s.count);
    } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(&metric)) {
      s.kind = MetricSnapshot::Kind::Gauge;
      s.value = (*g)->value();
    } else if (const auto* h = std::get_if<std::unique_ptr<Histogram>>(&metric)) {
      s.kind = MetricSnapshot::Kind::Histogram;
      s.count = (*h)->count();
      s.value = (*h)->sum();
      s.p50 = (*h)->percentile(50.0);
      s.p90 = (*h)->percentile(90.0);
      s.p99 = (*h)->percentile(99.0);
      s.max = (*h)->max();
    }
    out.push_back(std::move(s));
  }
  return out;
}

void CounterRegistry::merge_from(const CounterRegistry& other) {
  TC3I_EXPECTS(&other != this);
  // Snapshot the other side's entries under its lock, then fold them in
  // through the public get-or-create accessors (which take this->mu_ per
  // entry) so the two locks are never held together.
  std::vector<std::pair<std::string, const Metric*>> entries;
  {
    std::lock_guard<std::mutex> lock(other.mu_);
    entries.reserve(other.metrics_.size());
    for (const auto& [name, metric] : other.metrics_)
      entries.emplace_back(name, &metric);
  }
  for (const auto& [name, metric] : entries) {
    if (const auto* c = std::get_if<std::unique_ptr<Counter>>(metric)) {
      counter(name).add((*c)->value());
    } else if (const auto* g = std::get_if<std::unique_ptr<Gauge>>(metric)) {
      gauge(name).set((*g)->value());
    } else if (const auto* h = std::get_if<std::unique_ptr<Histogram>>(metric)) {
      histogram(name).merge_from(**h);
    }
  }
}

// --- Scope -------------------------------------------------------------------

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

Scope::Scope(Histogram& sink) : sink_(sink), start_ns_(now_ns()) {}

Scope::Scope(CounterRegistry& registry, const std::string& name)
    : Scope(registry.histogram(name)) {}

Scope::~Scope() {
  sink_.record(static_cast<double>(now_ns() - start_ns_) * 1e-9);
}

}  // namespace tc3i::obs
