// Cross-run aggregation for simulation sweeps.
//
// A sweep produces hundreds of RunRecords — (config x scenario) points,
// each replicated — and per-run reporting stops being readable at that
// scale. This module folds RunRecords into a SweepReport: per-group
// (model, platform name, scenario, processors) rollups of wall time,
// utilization, thread counts and the six issue-slot stall shares, each
// summarized by exact count/sum/min/max/mean plus a mergeable quantile
// sketch, with robust outlier flagging (runs beyond k x MAD from their
// group median wall time). Aggregation is deterministic: groups appear in
// first-seen submission order and every statistic is a pure fold over the
// records in submission order, so a sweep aggregated after sim::run_sweep's
// submission-order merge serializes byte-identically at any --jobs.
//
// The JSON schema ("sweep_report", schema_version 6; v5 carried an
// "anomalies" array, v4 lacked it) is documented in docs/OBSERVABILITY.md
// and validated by tools/json_check; tools/sweep_report renders/diffs it
// and tools/report_diff diffs it group-wise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/run_record.hpp"

namespace tc3i::obs {

class JsonWriter;

/// Deterministic mergeable quantile summary of a weighted value stream.
///
/// Exact (rank error 0) while the number of distinct stored points stays
/// under `capacity`; past that, compress() folds the sorted weighted points
/// into capacity/2 equal-weight buckets, which perturbs any rank query by
/// at most total_weight/ (capacity/2). The accumulated worst-case absolute
/// rank error is tracked explicitly and exposed as rank_error_bound(), so
/// callers (and tests) get a per-instance guarantee instead of an asymptotic
/// one: for any value v, |rank(v) - true_rank(v)| <= rank_error_bound().
/// merge_from() concatenates point sets and adds error bounds, so merging k
/// shards is guaranteed to agree with the sketch of the concatenated stream
/// within the sum of both sketches' bounds. All operations are
/// deterministic (no randomization), so a fixed insertion/merge order
/// yields bit-identical state.
class QuantileSketch {
 public:
  explicit QuantileSketch(std::size_t capacity = 1024);

  void insert(double value, double weight = 1.0);
  void merge_from(const QuantileSketch& other);

  [[nodiscard]] double total_weight() const { return total_weight_; }
  [[nodiscard]] bool empty() const { return total_weight_ <= 0.0; }

  /// Weighted lower quantile: the smallest stored value whose cumulative
  /// weight reaches q x total_weight (q clamped to [0, 1]). 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  /// Cumulative weight of stored points with value <= v.
  [[nodiscard]] double rank(double v) const;

  /// Worst-case absolute rank error accumulated by compressions (in weight
  /// units). 0 while the sketch is still exact.
  [[nodiscard]] double rank_error_bound() const { return rank_error_; }

  [[nodiscard]] std::size_t stored_points() const { return points_.size(); }

 private:
  struct Point {
    double value;
    double weight;
  };

  void ensure_sorted() const;
  void compress_if_needed();

  std::size_t capacity_;
  double total_weight_ = 0.0;
  double rank_error_ = 0.0;
  mutable bool sorted_ = true;
  mutable std::vector<Point> points_;
};

/// One aggregated metric: exact moments plus the quantile sketch.
struct MetricAggregate {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  QuantileSketch sketch;

  void add(double value);
  void merge_from(const MetricAggregate& other);
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Group identity for rollups. `threads` (peak live streams on the MTA) is
/// a per-run *measurement*, not a knob, so it is aggregated as a metric
/// rather than splitting groups; the config-side knobs are the key.
struct SweepGroupKey {
  std::string model;     ///< "mta", "smp", or "sthreads"
  std::string name;      ///< platform / machine config name
  std::string scenario;  ///< ScopedScenarioLabel at record time ("" = none)
  int processors = 1;

  bool operator==(const SweepGroupKey&) const = default;
};

/// Aggregates of one group, metrics in a fixed serialization order.
struct SweepGroup {
  SweepGroupKey key;
  std::string wall_unit;  ///< "cycles" (mta) or "seconds" (smp/sthreads)
  MetricAggregate wall;
  MetricAggregate utilization;
  MetricAggregate threads;
  /// MTA only: per-run share of each issue-slot category
  /// (slots.<cat> / slots.total()); the six means sum to 1.
  MetricAggregate slot_share[6];
  /// Submission-order (run index, wall value) pairs, kept for MAD outlier
  /// flagging at build time (16 bytes per run; sweeps are the unit of work
  /// here, so this stays small relative to the records it summarizes).
  std::vector<std::pair<std::uint64_t, double>> wall_by_run;
};

/// Names of the six slot-share metrics, in SweepGroup::slot_share order.
[[nodiscard]] const char* slot_share_name(std::size_t i);

/// Host-side accounting attached to a SweepReport (all optional; zeroed
/// fields are emitted as zeros). Wall/cpu seconds and max RSS come from
/// obs::sample_host_usage() deltas; cache hits/misses from the
/// testbed.cache.* counters; the sched section from obs::SweepSchedStore.
struct SweepHostSection {
  double wall_seconds = 0.0;
  double user_cpu_seconds = 0.0;
  double sys_cpu_seconds = 0.0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t testbed_cache_hits = 0;
  std::uint64_t testbed_cache_misses = 0;
  // Sweep-scheduler totals (sim::run_sweep spans).
  std::uint64_t sweeps = 0;
  std::uint64_t points = 0;
  int jobs = 0;
  double queue_wait_seconds = 0.0;
  double execute_seconds = 0.0;
};

/// Folds RunRecords into per-group aggregates. add() order is the record
/// submission order; merge_from() appends another aggregator's runs after
/// this one's (re-indexing its run ids), matching RunRecordStore::merge_from
/// semantics. Sharded aggregation over contiguous submission-order chunks
/// reproduces the serial fold exactly for counts, extremes, sketches and
/// outliers; `sum` (and so `mean`) reassociates the floating-point
/// addition, drifting by at most an ulp or two per shard boundary. The
/// byte-identical-at-any---jobs guarantee does not rely on merge_from:
/// RunSession aggregates the submission-order-merged records serially.
class SweepAggregator {
 public:
  explicit SweepAggregator(double outlier_k = 5.0);

  void add(const RunRecord& record);
  void merge_from(const SweepAggregator& other);

  [[nodiscard]] std::uint64_t runs() const { return runs_; }
  [[nodiscard]] double outlier_k() const { return outlier_k_; }
  [[nodiscard]] const std::vector<SweepGroup>& groups() const {
    return groups_;
  }

  /// Run indices flagged as outliers in `group`: |wall - median| >
  /// k x max(MAD, 1e-12 x |median|), computed over the group's runs.
  [[nodiscard]] std::vector<std::uint64_t> outlier_runs(
      const SweepGroup& group) const;

  /// Serializes only the deterministic aggregate sections (bench/runs/
  /// groups) — the part that is byte-identical at any --jobs.
  void write_groups_json(JsonWriter& w) const;

  /// Full SweepReport (schema_version 6, kind "sweep_report"): aggregate
  /// sections plus the host/sched accounting. Ends with a newline.
  void write_report_json(std::ostream& out, const std::string& bench,
                         const SweepHostSection& host) const;

 private:
  SweepGroup& group_for(const SweepGroupKey& key);

  double outlier_k_;
  std::uint64_t runs_ = 0;
  std::vector<SweepGroup> groups_;
};

/// Convenience: aggregate a whole record vector in order (e.g. the
/// machine_runs of a parsed RunReport, for independent recomputation).
[[nodiscard]] SweepAggregator aggregate_records(
    const std::vector<RunRecord>& records, double outlier_k = 5.0);

}  // namespace tc3i::obs
