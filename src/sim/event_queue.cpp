#include "sim/event_queue.hpp"

#include <limits>
#include <utility>

#include "core/contracts.hpp"
#include "obs/counters.hpp"

namespace tc3i::sim {

EventQueue::EventQueue()
    : scheduled_counter_(
          &obs::default_registry().counter("sim.eventq.scheduled")),
      processed_counter_(
          &obs::default_registry().counter("sim.eventq.processed")) {}

void EventQueue::schedule_at(Cycles at, Callback fn) {
  TC3I_EXPECTS(at >= now_);
  scheduled_counter_->add();
  heap_.push(Event{at, next_seq_++, std::move(fn)});
}

void EventQueue::schedule_in(Cycles delay, Callback fn) {
  TC3I_EXPECTS(delay >= 0.0);
  schedule_at(now_ + delay, std::move(fn));
}

Cycles EventQueue::run() {
  return run_until(std::numeric_limits<Cycles>::infinity());
}

Cycles EventQueue::run_until(Cycles until) {
  while (!heap_.empty() && heap_.top().at <= until) {
    // Copy out before pop: the callback may schedule new events.
    Event ev = heap_.top();
    heap_.pop();
    now_ = ev.at;
    ++processed_;
    processed_counter_->add();
    ev.fn();
  }
  return now_;
}

bool EventQueue::step() {
  if (heap_.empty()) return false;
  Event ev = heap_.top();
  heap_.pop();
  now_ = ev.at;
  ++processed_;
  processed_counter_->add();
  ev.fn();
  return true;
}

}  // namespace tc3i::sim
