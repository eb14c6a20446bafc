// Deterministic host-parallel sweep runner for the bench binaries.
//
// A sweep is an indexed family of independent experiment points (table
// rows, ablation grid cells, scaling curves). run_sweep() evaluates them on
// a pool of sthreads and returns the results in submission order, so a
// bench's output is independent of scheduling.
//
// Fork and merge rule: with jobs > 1 every point runs under its own
// obs::ContextFork of the caller's obs::Context — a fresh counter registry
// and, where the caller collects them, fresh run-record and timeline
// stores; the scenario label, trace sink and scheduler store are
// shared. Any sthreads the point spawns inherit its
// forked context. After every point has finished, the forks are merged
// into the caller's context in submission order: counters sum, gauges keep
// the last-submitted point's value, histograms merge, records and
// timelines append — exactly as a serial run would leave them, so
// RunReport's machine_runs section and the --timeline-out CSV are
// byte-identical at any --jobs.
//
// jobs == 1 runs the points inline on the caller's thread and context,
// with no pool and no fork: byte-for-byte the serial code path.
//
// Scheduler telemetry: when the context names an obs::SweepSchedStore
// (--sweep-trace-out / --sweep-report-out), every point additionally
// records a host-time span (submit/start/end + worker lane) so the sweep
// scheduler itself can be traced and its queue-wait vs execute time
// attributed. With no store the sweep makes no clock calls.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/contracts.hpp"
#include "obs/context.hpp"
#include "obs/hostres.hpp"
#include "sthreads/thread.hpp"

namespace tc3i::sim {

/// Maps a --jobs flag value to a worker count: 0 means
/// hardware_concurrency, anything else is used as-is (minimum 1).
[[nodiscard]] int resolve_jobs(int requested);

/// Evaluates fn(0..count-1) with at most `jobs` points in flight and
/// returns the results indexed by point. fn must not depend on the
/// evaluation order of other points.
template <typename Fn>
auto run_sweep(std::size_t count, int jobs, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using Result = decltype(fn(std::size_t{}));
  static_assert(!std::is_void_v<Result>,
                "sweep points must return a value (return 0 for effects)");
  TC3I_EXPECTS(jobs >= 1);
  std::vector<Result> results(count);
  const obs::Context& parent = obs::current_context();
  const std::size_t workers =
      jobs == 1 || count <= 1 ? 1 : std::min(static_cast<std::size_t>(jobs),
                                             count);
  // Scheduler telemetry (opt-in): one span per point with submit/start/end
  // host timestamps and the worker lane. Null store means no clock calls
  // at all, so the default path is unchanged.
  obs::SweepSchedStore* sched = parent.sched;
  const std::uint32_t sweep_id =
      sched != nullptr && count > 0
          ? sched->begin_sweep(count, static_cast<int>(workers))
          : 0;
  const double submit_us = sched != nullptr ? sched->now_us() : 0.0;
  // One fork per point when the points run concurrently; inline points
  // write straight into the caller's context.
  std::vector<std::unique_ptr<obs::ContextFork>> forks(workers > 1 ? count
                                                                   : 0);

  const auto run_point = [&](std::size_t i, std::size_t w) {
    const double start_us = sched != nullptr ? sched->now_us() : 0.0;
    std::optional<obs::ScopedContext> scope;
    if (!forks.empty()) {
      forks[i] = std::make_unique<obs::ContextFork>(parent);
      scope.emplace(forks[i]->context());
    }
    results[i] = fn(i);
    if (sched != nullptr)
      sched->add_span(obs::SweepJobSpan{
          sweep_id, static_cast<std::uint32_t>(i),
          static_cast<std::uint32_t>(w), submit_us, start_us,
          sched->now_us()});
  };

  if (workers == 1) {
    for (std::size_t i = 0; i < count; ++i) run_point(i, 0);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<sthreads::Thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w]() {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1))
          run_point(i, w);
      });
    }
    // Thread destructors join.
  }
  for (const auto& fork : forks) fork->merge_into(parent);
  return results;
}

/// Convenience overload for benches: a fixed list of point thunks.
[[nodiscard]] std::vector<double> run_sweep(
    const std::vector<std::function<double()>>& points, int jobs);

}  // namespace tc3i::sim
