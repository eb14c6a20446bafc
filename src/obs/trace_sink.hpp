// Typed simulator event recording with Chrome trace_event export.
//
// A TraceSink collects events emitted by the machine models — stream
// spawn/block/unblock, issue-slot utilization, memory-network traffic, lock
// acquire/contend/release, scheduler activity — and exports them as
//   - Chrome trace JSON (load in chrome://tracing or https://ui.perfetto.dev),
//   - a compact CSV timeline for scripted analysis.
//
// Timestamps are simulated microseconds (each machine converts its own
// clock domain); every machine registers a named track so multi-machine
// runs (e.g. a bench that simulates both platforms) stay separable.
//
// Tracing is opt-in: the machine models read the obs::Context sink once at
// construction and emit nothing when it is null. Forked sweep-point
// contexts share the sink, which is why RunSession pins --trace-out runs
// to --jobs 1.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace tc3i::obs {

/// Event categories, rendered as the Chrome "cat" field.
enum class Category : std::uint8_t { Issue, Memory, Sync, Spawn, Sched, Phase };

[[nodiscard]] const char* category_name(Category cat);

struct TraceEvent {
  double ts_us = 0.0;    ///< simulated microseconds
  double dur_us = 0.0;   ///< complete ('X') events only
  double value = 0.0;    ///< counter ('C') events only
  std::uint32_t pid = 0; ///< track id (one per machine instance)
  std::uint64_t tid = 0; ///< stream / worker id within the track
  Category cat = Category::Phase;
  char ph = 'i';         ///< Chrome phase: B, E, X, i, C
  std::string name;
};

class TraceSink {
 public:
  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Registers a named track (Chrome "process") and returns its id.
  [[nodiscard]] std::uint32_t register_track(const std::string& name);

  void instant(Category cat, std::string name, double ts_us, std::uint32_t pid,
               std::uint64_t tid);
  void begin(Category cat, std::string name, double ts_us, std::uint32_t pid,
             std::uint64_t tid);
  void end(Category cat, std::string name, double ts_us, std::uint32_t pid,
           std::uint64_t tid);
  void complete(Category cat, std::string name, double ts_us, double dur_us,
                std::uint32_t pid, std::uint64_t tid);
  void counter(Category cat, std::string name, double ts_us, std::uint32_t pid,
               double value);

  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }

  /// Chrome trace_event JSON (object format, sorted by timestamp).
  void write_chrome_json(std::ostream& out) const;

  /// CSV timeline: ts_us,category,phase,name,pid,tid,value,dur_us.
  void write_csv(std::ostream& out) const;

  /// Writes both formats to `json_path` and (if non-empty) `csv_path`.
  /// Returns false with `*error` set if a file cannot be written.
  [[nodiscard]] bool write_files(const std::string& json_path,
                                 const std::string& csv_path,
                                 std::string* error) const;

 private:
  void push(TraceEvent ev);

  std::vector<TraceEvent> events_;
  std::vector<std::string> tracks_;
};

}  // namespace tc3i::obs
