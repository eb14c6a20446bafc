// Host-resource accounting and sweep-scheduler telemetry.
//
// Simulated time tells you why a *run* was slow; locating a sweep
// throughput regression needs the host side: how much wall/user/sys time
// the process burned, how big it got, and where the sweep scheduler spent
// its time (queue wait vs execute, per worker). sample_host_usage() wraps
// getrusage(RUSAGE_SELF) plus a process-start wall anchor; SweepSchedStore
// collects one span per sim::run_sweep point (submit / start / end host
// timestamps and the worker that ran it) and exports them as a Chrome
// trace of the scheduler itself — one lane per worker, a queue-wait span
// and an execute span per point — via obs::TraceSink.
//
// Both are opt-in at the session level: run_sweep feeds spans only when the
// obs::Context names a store (RunSession sets one for --sweep-trace-out /
// --sweep-report-out), so the default sweep path stays free of clock calls.
#pragma once

#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace tc3i::obs {

/// Cumulative host resource usage of this process. Subtract two samples to
/// attribute a phase; wall_seconds is measured from a process-local steady
/// anchor, the rest comes from getrusage(RUSAGE_SELF). max_rss_kb is a
/// high-water mark, not a rate — deltas keep the later sample's value.
struct HostResUsage {
  double wall_seconds = 0.0;
  double user_cpu_seconds = 0.0;
  double sys_cpu_seconds = 0.0;
  std::uint64_t max_rss_kb = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_ctx_switches = 0;
  std::uint64_t involuntary_ctx_switches = 0;
};

[[nodiscard]] HostResUsage sample_host_usage();

/// end - begin, component-wise; max_rss_kb keeps end's high-water mark.
[[nodiscard]] HostResUsage host_usage_delta(const HostResUsage& begin,
                                            const HostResUsage& end);

/// One sweep point's life on the host: submitted (sweep start), picked up
/// by `worker`, finished. Timestamps are microseconds since the store was
/// created, so spans from successive sweeps share one clock.
struct SweepJobSpan {
  std::uint32_t sweep = 0;   ///< run_sweep invocation index (per store)
  std::uint32_t point = 0;   ///< point index within the sweep
  std::uint32_t worker = 0;  ///< worker lane that executed the point
  double submit_us = 0.0;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Per-sweep header, recorded at run_sweep entry.
struct SweepInfo {
  std::uint32_t id = 0;
  std::uint64_t points = 0;
  int jobs = 0;
};

/// Thread-safe collector of sweep-scheduler spans.
class SweepSchedStore {
 public:
  SweepSchedStore();
  SweepSchedStore(const SweepSchedStore&) = delete;
  SweepSchedStore& operator=(const SweepSchedStore&) = delete;

  /// Registers one run_sweep invocation; returns its id.
  std::uint32_t begin_sweep(std::uint64_t points, int jobs);

  /// Current microseconds on the store's clock (steady, anchored at
  /// construction).
  [[nodiscard]] double now_us() const;

  void add_span(SweepJobSpan span);

  [[nodiscard]] std::vector<SweepJobSpan> spans() const;
  [[nodiscard]] std::vector<SweepInfo> sweeps() const;
  [[nodiscard]] std::size_t size() const;

  /// Scheduler totals for the SweepReport host section.
  struct Summary {
    std::uint64_t sweeps = 0;
    std::uint64_t points = 0;
    int max_jobs = 0;
    double queue_wait_seconds = 0.0;  ///< sum of start - submit
    double execute_seconds = 0.0;     ///< sum of end - start
  };
  [[nodiscard]] Summary summary() const;

  /// Chrome trace of the scheduler: one "sweep scheduler" track, one lane
  /// (tid) per worker, and per point a Sched "queue s<i>.p<j>" span
  /// (submit -> start) followed by an execute span "run s<i>.p<j>"
  /// (start -> end).
  void write_chrome_trace(std::ostream& out) const;

  /// Writes the trace to `path` (creating parent directories). Returns
  /// false with *error set on I/O failure.
  [[nodiscard]] bool write_chrome_trace_file(const std::string& path,
                                             std::string* error) const;

 private:
  const std::uint64_t anchor_ns_;
  mutable std::mutex mu_;
  std::uint32_t next_sweep_ = 0;
  std::vector<SweepInfo> sweeps_;
  std::vector<SweepJobSpan> spans_;
};

}  // namespace tc3i::obs
