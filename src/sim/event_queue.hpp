// Discrete-event simulation kernel.
//
// A minimal, deterministic DES: events are (time, sequence) ordered, so two
// events at the same timestamp fire in scheduling order. Both machine models
// are built on this kernel (the MTA stream simulator uses it for memory and
// synchronization wake-ups; the SMP fluid model uses it for phase
// completions).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "core/units.hpp"

namespace tc3i::obs {
class Counter;
}

namespace tc3i::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Resolves the "sim.eventq." counters in obs::default_registry() as
  /// current at construction (the registry must outlive the queue, the
  /// same contract as the machine models' metric pointers).
  EventQueue();

  /// Schedules `fn` to run at absolute time `at` (>= now()).
  void schedule_at(Cycles at, Callback fn);

  /// Schedules `fn` to run `delay` cycles from now.
  void schedule_in(Cycles delay, Callback fn);

  /// Runs events until the queue is empty. Returns the final time.
  Cycles run();

  /// Runs events with time <= `until` (events beyond stay queued).
  Cycles run_until(Cycles until);

  /// Fires exactly one event, if any. Returns true if an event ran.
  bool step();

  [[nodiscard]] Cycles now() const { return now_; }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t events_processed() const { return processed_; }

 private:
  struct Event {
    Cycles at;
    std::uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  Cycles now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  obs::Counter* scheduled_counter_;
  obs::Counter* processed_counter_;
};

}  // namespace tc3i::sim
