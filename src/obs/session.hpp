// Per-binary observability session: owns the trace sink and run report and
// wires them to the standard flag set every instrumented binary exposes:
//
//   --trace-out <path>    write Chrome trace JSON (+ sibling .csv timeline)
//   --report-out <path>   write the RunReport JSON
//   --timeline-out <path> write sampled per-run utilization timelines as CSV
//   --sample-period <n>   simulated cycles per timeline sample (default 4096)
//   --counters            dump the counter registry to stdout at exit
//                         (bare flag; `--counters true` also accepted)
//   --sweep-report-out <path>  aggregate every machine run into a
//                         SweepReport JSON (schema v6: per-group rollups,
//                         quantile sketches, outlier runs, host-resource
//                         and sweep-scheduler accounting)
//   --sweep-trace-out <path>   write a Chrome trace of the sweep scheduler
//                         itself (one lane per --jobs worker, queue-wait
//                         vs execute spans per point); unlike --trace-out
//                         this is host-time telemetry and composes with
//                         any --jobs value
//   --jobs <n>            host threads for independent simulation points
//                         (0 = hardware concurrency). Tracing requires a
//                         single deterministic event stream, so --trace-out
//                         forces jobs to 1 (an explicit --jobs > 1 with
//                         --trace-out is an error). This is the only
//                         host-parallelism flag: each point is one scalar
//                         simulation, and output is byte-identical at any
//                         value.
//
// Construction builds one obs::Context (context.hpp) naming the stores its
// flags ask for — trace sink, run records (always), timeline,
// sweep-scheduler store — and installs it on the constructing
// thread for the session's lifetime. Threads started through
// sthreads::Thread inherit it, and sim::run_sweep forks it per point at
// --jobs > 1 and merges the forks back in submission order, so every
// output is byte-identical at any --jobs. Destruction (or finish()) writes
// all requested outputs. Exactly one session may be active at a time;
// RunSession::active() lets shared helper code (e.g. the bench harness row
// formatter) feed the report without threading a pointer through every
// call site.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/cli.hpp"
#include "obs/context.hpp"
#include "obs/hostres.hpp"
#include "obs/report.hpp"
#include "obs/run_record.hpp"
#include "obs/timeline.hpp"
#include "obs/trace_sink.hpp"

namespace tc3i::obs {

class RunSession {
 public:
  /// Registers --trace-out / --report-out / --counters on `cli`.
  static void add_cli_flags(CliParser& cli);

  /// Reads the flags registered by add_cli_flags from a parsed `cli`.
  RunSession(std::string name, const CliParser& cli);

  RunSession(const RunSession&) = delete;
  RunSession& operator=(const RunSession&) = delete;
  ~RunSession();

  /// The active session, or null. Set for the session's whole lifetime.
  [[nodiscard]] static RunSession* active();

  [[nodiscard]] RunReport& report() { return report_; }
  /// Non-null iff --trace-out was given.
  [[nodiscard]] TraceSink* sink() { return sink_.get(); }
  /// Per-run accounting records collected so far (always available).
  [[nodiscard]] RunRecordStore& run_records() { return *records_; }
  /// Non-null iff --timeline-out was given.
  [[nodiscard]] TimelineStore* timeline() { return timeline_.get(); }
  /// Non-null iff --sweep-report-out or --sweep-trace-out was given
  /// (sim::run_sweep feeds it one span per point).
  [[nodiscard]] SweepSchedStore* sweep_sched() { return sched_.get(); }

  /// Resolved host worker-thread count for sim::run_sweep: the --jobs flag
  /// with 0 replaced by std::thread::hardware_concurrency() and tracing
  /// runs pinned to 1. Always >= 1.
  [[nodiscard]] int jobs() const { return jobs_; }

  /// Writes trace/report/counter outputs now (idempotent; the destructor
  /// calls it). Prints one line per file written.
  void finish();

 private:
  std::string name_;
  std::string trace_path_;
  std::string report_path_;
  std::string timeline_path_;
  std::string sweep_report_path_;
  std::string sweep_trace_path_;
  int jobs_ = 1;
  bool dump_counters_ = false;
  bool finished_ = false;
  std::unique_ptr<TraceSink> sink_;
  std::unique_ptr<RunRecordStore> records_;
  std::unique_ptr<TimelineStore> timeline_;
  std::unique_ptr<SweepSchedStore> sched_;
  HostResUsage host_begin_;
  RunReport report_;
  std::optional<ScopedContext> scope_;  ///< installs the stores above
};

}  // namespace tc3i::obs
