#include "obs/aggregate.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "obs/json.hpp"

namespace tc3i::obs {

// --- QuantileSketch ----------------------------------------------------------

QuantileSketch::QuantileSketch(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 8)) {}

void QuantileSketch::insert(double value, double weight) {
  if (weight <= 0.0) return;
  points_.push_back(Point{value, weight});
  total_weight_ += weight;
  sorted_ = false;
  compress_if_needed();
}

void QuantileSketch::merge_from(const QuantileSketch& other) {
  if (other.points_.empty()) return;
  points_.insert(points_.end(), other.points_.begin(), other.points_.end());
  total_weight_ += other.total_weight_;
  rank_error_ += other.rank_error_;
  sorted_ = false;
  compress_if_needed();
}

void QuantileSketch::ensure_sorted() const {
  if (sorted_) return;
  // Stable so equal values keep insertion order: the fold stays a pure
  // function of the (deterministic) insertion sequence.
  std::stable_sort(
      points_.begin(), points_.end(),
      [](const Point& a, const Point& b) { return a.value < b.value; });
  sorted_ = true;
}

void QuantileSketch::compress_if_needed() {
  if (points_.size() <= capacity_) return;
  ensure_sorted();
  const std::size_t target = capacity_ / 2;
  const double bucket = total_weight_ / static_cast<double>(target);
  std::vector<Point> compact;
  compact.reserve(target);
  // Representative of bucket j is the stored value at cumulative weight
  // (j + 1/2) x bucket; each bucket keeps exactly `bucket` weight, so
  // cumulative weights at bucket boundaries are preserved and any rank
  // query moves by at most one bucket of weight.
  std::size_t idx = 0;
  double cum = points_[0].weight;
  for (std::size_t j = 0; j < target; ++j) {
    const double mid = (static_cast<double>(j) + 0.5) * bucket;
    while (cum < mid && idx + 1 < points_.size()) {
      ++idx;
      cum += points_[idx].weight;
    }
    compact.push_back(Point{points_[idx].value, bucket});
  }
  points_ = std::move(compact);
  rank_error_ += bucket;
}

double QuantileSketch::quantile(double q) const {
  if (points_.empty()) return 0.0;
  ensure_sorted();
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * total_weight_;
  double cum = 0.0;
  for (const Point& p : points_) {
    cum += p.weight;
    if (cum >= target) return p.value;
  }
  return points_.back().value;
}

double QuantileSketch::rank(double v) const {
  ensure_sorted();
  double cum = 0.0;
  for (const Point& p : points_) {
    if (p.value > v) break;
    cum += p.weight;
  }
  return cum;
}

// --- MetricAggregate ---------------------------------------------------------

void MetricAggregate::add(double value) {
  if (count == 0) {
    min = value;
    max = value;
  } else {
    min = std::min(min, value);
    max = std::max(max, value);
  }
  ++count;
  sum += value;
  sketch.insert(value);
}

void MetricAggregate::merge_from(const MetricAggregate& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min = other.min;
    max = other.max;
  } else {
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }
  count += other.count;
  sum += other.sum;
  sketch.merge_from(other.sketch);
}

// --- SweepAggregator ---------------------------------------------------------

const char* slot_share_name(std::size_t i) {
  static const char* kNames[6] = {"used",  "no_stream", "spacing",
                                  "spawn", "memory",    "sync"};
  TC3I_EXPECTS(i < 6);
  return kNames[i];
}

SweepAggregator::SweepAggregator(double outlier_k) : outlier_k_(outlier_k) {
  TC3I_EXPECTS(outlier_k_ > 0.0);
}

SweepGroup& SweepAggregator::group_for(const SweepGroupKey& key) {
  for (SweepGroup& g : groups_)
    if (g.key == key) return g;
  groups_.emplace_back();
  groups_.back().key = key;
  return groups_.back();
}

void SweepAggregator::add(const RunRecord& record) {
  const std::uint64_t run_index = runs_++;
  SweepGroup& g = group_for(SweepGroupKey{
      record.model, record.name, record.scenario, record.processors});
  const bool mta = record.model == "mta";
  g.wall_unit = mta ? "cycles" : "seconds";
  const double wall = mta ? static_cast<double>(record.cycles)
                          : record.elapsed_seconds;
  g.wall.add(wall);
  g.wall_by_run.emplace_back(run_index, wall);
  g.utilization.add(record.utilization);
  g.threads.add(static_cast<double>(record.threads));
  if (mta) {
    const double total = static_cast<double>(record.slots.total());
    const double values[6] = {
        static_cast<double>(record.slots.used),
        static_cast<double>(record.slots.no_stream),
        static_cast<double>(record.slots.spacing),
        static_cast<double>(record.slots.spawn),
        static_cast<double>(record.slots.memory),
        static_cast<double>(record.slots.sync)};
    for (std::size_t i = 0; i < 6; ++i)
      g.slot_share[i].add(total > 0.0 ? values[i] / total : 0.0);
  }
}

void SweepAggregator::merge_from(const SweepAggregator& other) {
  const std::uint64_t offset = runs_;
  for (const SweepGroup& og : other.groups_) {
    SweepGroup& g = group_for(og.key);
    if (g.wall_unit.empty()) g.wall_unit = og.wall_unit;
    g.wall.merge_from(og.wall);
    g.utilization.merge_from(og.utilization);
    g.threads.merge_from(og.threads);
    for (std::size_t i = 0; i < 6; ++i)
      g.slot_share[i].merge_from(og.slot_share[i]);
    for (const auto& [run, wall] : og.wall_by_run)
      g.wall_by_run.emplace_back(run + offset, wall);
  }
  runs_ += other.runs_;
}

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    // Lower half's max completes the even-size average.
    const double lo = *std::max_element(
        v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (lo + m);
  }
  return m;
}

}  // namespace

std::vector<std::uint64_t> SweepAggregator::outlier_runs(
    const SweepGroup& group) const {
  std::vector<std::uint64_t> out;
  if (group.wall_by_run.size() < 3) return out;  // no robust center yet
  std::vector<double> walls;
  walls.reserve(group.wall_by_run.size());
  for (const auto& [run, wall] : group.wall_by_run) walls.push_back(wall);
  const double med = median_of(walls);
  std::vector<double> dev;
  dev.reserve(walls.size());
  for (const double w : walls) dev.push_back(std::fabs(w - med));
  const double mad = median_of(dev);
  // A zero MAD (more than half the group identical, the common case for a
  // deterministic simulator) would flag any deviation at all; keep a tiny
  // relative floor so only genuine departures trip.
  const double threshold = outlier_k_ * std::max(mad, 1e-12 * std::fabs(med));
  for (const auto& [run, wall] : group.wall_by_run)
    if (std::fabs(wall - med) > threshold) out.push_back(run);
  return out;
}

namespace {

void write_metric(JsonWriter& w, const char* name, const MetricAggregate& m) {
  w.key(name);
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(m.count));
  w.field("sum", m.sum);
  w.field("min", m.min);
  w.field("max", m.max);
  w.field("mean", m.mean());
  w.field("p10", m.sketch.quantile(0.10));
  w.field("p50", m.sketch.quantile(0.50));
  w.field("p90", m.sketch.quantile(0.90));
  w.field("rank_error", m.sketch.rank_error_bound());
  w.end_object();
}

}  // namespace

void SweepAggregator::write_groups_json(JsonWriter& w) const {
  w.field("runs", runs_);
  w.field("outlier_k", outlier_k_);
  w.key("groups");
  w.begin_array();
  for (const SweepGroup& g : groups_) {
    w.begin_object();
    w.field("model", g.key.model);
    w.field("name", g.key.name);
    w.field("scenario", g.key.scenario);
    w.field("processors", g.key.processors);
    w.field("count", static_cast<std::uint64_t>(g.wall.count));
    w.field("wall_unit", g.wall_unit);
    w.key("metrics");
    w.begin_object();
    write_metric(w, "wall", g.wall);
    write_metric(w, "utilization", g.utilization);
    write_metric(w, "threads", g.threads);
    if (g.key.model == "mta")
      for (std::size_t i = 0; i < 6; ++i)
        write_metric(w, (std::string("slot_share.") + slot_share_name(i)).c_str(),
                     g.slot_share[i]);
    w.end_object();
    w.key("outlier_runs");
    w.begin_array();
    for (const std::uint64_t run : outlier_runs(g)) w.value(run);
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

void SweepAggregator::write_report_json(std::ostream& out,
                                        const std::string& bench,
                                        const SweepHostSection& host) const {
  JsonWriter w(out);
  w.begin_object();
  w.field("bench", bench);
  w.field("schema_version", std::uint64_t{6});
  w.field("kind", "sweep_report");
  write_groups_json(w);
  w.key("host");
  w.begin_object();
  w.field("wall_seconds", host.wall_seconds);
  w.field("user_cpu_seconds", host.user_cpu_seconds);
  w.field("sys_cpu_seconds", host.sys_cpu_seconds);
  w.field("max_rss_kb", host.max_rss_kb);
  w.field("minor_faults", host.minor_faults);
  w.field("major_faults", host.major_faults);
  w.field("testbed_cache_hits", host.testbed_cache_hits);
  w.field("testbed_cache_misses", host.testbed_cache_misses);
  w.key("sched");
  w.begin_object();
  w.field("sweeps", host.sweeps);
  w.field("points", host.points);
  w.field("jobs", host.jobs);
  w.field("queue_wait_seconds", host.queue_wait_seconds);
  w.field("execute_seconds", host.execute_seconds);
  w.end_object();
  w.end_object();
  w.end_object();
  out << '\n';
}

SweepAggregator aggregate_records(const std::vector<RunRecord>& records,
                                  double outlier_k) {
  SweepAggregator agg(outlier_k);
  for (const RunRecord& r : records) agg.add(r);
  return agg;
}

}  // namespace tc3i::obs
