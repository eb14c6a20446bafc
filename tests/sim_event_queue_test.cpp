#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "obs/counters.hpp"

namespace tc3i::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30.0, [&] { order.push_back(3); });
  q.schedule_at(10.0, [&] { order.push_back(1); });
  q.schedule_at(20.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 30.0);
}

TEST(EventQueue, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CallbackCanScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) q.schedule_in(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, RunUntilLeavesLaterEventsQueued) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(10.0, [&] { ++fired; });
  q.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StepFiresExactlyOne) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(2.0, [&] { ++fired; });
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, ScheduleInIsRelativeToNow) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(10.0, [&] {
    q.schedule_in(5.0, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(EventQueue, CountsProcessedEvents) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.events_processed(), 7u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CountsIntoTheRegistryCurrentAtConstruction) {
  // Sweep points run under their own scoped registries, which are freed
  // when the sweep ends: each queue must count into the registry current
  // when it was built, never into one an earlier queue saw.
  for (int round = 0; round < 2; ++round) {
    obs::CounterRegistry registry;
    {
      const obs::ScopedRegistry scope(registry);
      EventQueue q;
      for (int i = 0; i < 3; ++i) q.schedule_at(i, [] {});
      q.run();
    }
    EXPECT_EQ(registry.counter("sim.eventq.scheduled").value(), 3u)
        << "round " << round;
    EXPECT_EQ(registry.counter("sim.eventq.processed").value(), 3u)
        << "round " << round;
  }
}

TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue q;
  q.schedule_at(10.0, [] {});
  q.run();
  EXPECT_DEATH(q.schedule_at(5.0, [] {}), "Precondition");
}

}  // namespace
}  // namespace tc3i::sim
