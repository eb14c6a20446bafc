// The observability context: which stores a simulation on this thread
// writes to.
//
// One obs::Context names everything the machine models, the sweep runner
// and the sthreads runtime feed: the counter registry, the run-record
// and timeline stores, the scenario label, the trace sink and the
// sweep-scheduler store. A thread sees the context of its
// innermost ScopedContext, or the process default (the process-wide
// registry and nothing else) when none is installed. Besides ScopedScenarioLabel, three parties install one:
//   - RunSession, for the binary's lifetime, with the stores its flags ask
//     for;
//   - sthreads::Thread, which hands the creating thread's context to the
//     new thread, so nested fork/join writes where its creator writes;
//   - sim::run_sweep at --jobs > 1, which runs each point under a
//     ContextFork and merges the forks back in submission order.
// Null members mean "off": machines skip the corresponding work entirely.
#pragma once

#include <memory>
#include <string>

namespace tc3i::obs {

class CounterRegistry;
class RunRecordStore;
class SweepSchedStore;
class TimelineStore;
class TraceSink;

struct Context {
  // Forked per sweep point (fresh in every ContextFork).
  CounterRegistry* registry = nullptr;  ///< never null once installed
  RunRecordStore* records = nullptr;    ///< per-run accounting records
  TimelineStore* timeline = nullptr;    ///< sampled machine timelines

  // Shared with forks.
  /// Workload scenario RunRecordStore::add stamps into RunRecord::scenario
  /// ("" when none; set through ScopedScenarioLabel).
  std::string scenario;
  TraceSink* sink = nullptr;         ///< simulator event trace
  SweepSchedStore* sched = nullptr;  ///< sweep-scheduler host spans
};

/// The calling thread's context: the innermost ScopedContext's, else the
/// process default.
[[nodiscard]] const Context& current_context();

/// Installs a copy of `ctx` as the calling thread's context for this
/// object's lifetime (nests; restores the previous one on destruction).
class ScopedContext {
 public:
  explicit ScopedContext(Context ctx);
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;
  ~ScopedContext();

 private:
  Context ctx_;
  const Context* prev_;
};

/// Installs the current context with `label` as its scenario for this
/// object's lifetime. Set it around the code that runs one scenario (the
/// platforms experiment layer does this for the C3I workloads).
class ScopedScenarioLabel {
 public:
  explicit ScopedScenarioLabel(std::string label);

 private:
  ScopedContext scope_;
};

/// One sweep point's context: `parent` with a fresh registry and, where
/// the parent collects them, fresh run-record and timeline stores. The
/// remaining members are shared with the parent.
class ContextFork {
 public:
  explicit ContextFork(const Context& parent);
  ContextFork(const ContextFork&) = delete;
  ContextFork& operator=(const ContextFork&) = delete;
  ~ContextFork();

  [[nodiscard]] const Context& context() const { return ctx_; }

  /// Folds the fork's registry and stores into `parent`'s: counters add,
  /// gauges take the fork's value, histograms merge, records and timelines
  /// append. Merging every fork in submission order leaves the parent
  /// exactly as a serial run would.
  void merge_into(const Context& parent) const;

 private:
  std::unique_ptr<CounterRegistry> registry_;
  std::unique_ptr<RunRecordStore> records_;
  std::unique_ptr<TimelineStore> timeline_;
  Context ctx_;
};

}  // namespace tc3i::obs
