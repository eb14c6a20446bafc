#include "sim/timer_wheel.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "core/rng.hpp"

namespace tc3i::sim {
namespace {

using Wheel = TimerWheel<std::uint32_t>;
using Due = std::pair<std::uint64_t, std::uint32_t>;

std::vector<Due> drain(Wheel& w, std::uint64_t now) {
  std::vector<Due> out;
  w.drain_due(now, [&](std::uint64_t at, std::uint32_t p) {
    out.emplace_back(at, p);
  });
  return out;
}

TEST(TimerWheel, StartsEmpty) {
  Wheel w;
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.next_due(), Wheel::kNone);
  EXPECT_TRUE(drain(w, 100).empty());
  EXPECT_EQ(w.current(), 101u);
}

TEST(TimerWheel, DrainsInCyclePayloadOrder) {
  Wheel w;
  w.push(30, 2);
  w.push(10, 7);
  w.push(30, 1);
  w.push(20, 5);
  EXPECT_EQ(w.next_due(), 10u);
  const auto due = drain(w, 30);
  const std::vector<Due> want = {{10, 7}, {20, 5}, {30, 1}, {30, 2}};
  EXPECT_EQ(due, want);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, PartialDrainLeavesFutureEntries) {
  Wheel w;
  w.push(5, 1);
  w.push(6, 2);
  const auto due = drain(w, 5);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], Due(5, 1));
  EXPECT_EQ(w.size(), 1u);
  EXPECT_EQ(w.next_due(), 6u);
  EXPECT_EQ(drain(w, 6), (std::vector<Due>{{6, 2}}));
}

TEST(TimerWheel, LatePushBecomesImmediatelyDue) {
  Wheel w;
  drain(w, 99);  // current() is now 100
  w.push(40, 3);  // before current(): due at the next drain
  EXPECT_EQ(w.next_due(), 40u);
  const auto due = drain(w, 100);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], Due(40, 3));
}

TEST(TimerWheel, LateEntriesOrderBeforeWheelEntries) {
  Wheel w;
  drain(w, 99);
  w.push(100, 4);  // in-wheel at the drain cycle
  w.push(98, 9);   // late: earlier cycle must come out first despite payload
  const auto due = drain(w, 100);
  const std::vector<Due> want = {{98, 9}, {100, 4}};
  EXPECT_EQ(due, want);
}

TEST(TimerWheel, OverflowBeyondHorizonMigratesBack) {
  Wheel w(6);  // 64 buckets: horizon is small enough to exercise overflow
  w.push(10, 1);
  w.push(1000, 2);   // far beyond the horizon
  w.push(1000, 1);
  w.push(70, 3);     // beyond horizon at push time (current=0, N=64)
  EXPECT_EQ(w.next_due(), 10u);
  EXPECT_EQ(drain(w, 10), (std::vector<Due>{{10, 1}}));
  EXPECT_EQ(w.next_due(), 70u);
  EXPECT_EQ(drain(w, 70), (std::vector<Due>{{70, 3}}));
  EXPECT_EQ(w.next_due(), 1000u);
  // Jumping far past the horizon in one drain picks up overflow entries.
  const auto due = drain(w, 2000);
  const std::vector<Due> want = {{1000, 1}, {1000, 2}};
  EXPECT_EQ(due, want);
  EXPECT_TRUE(w.empty());
}

TEST(TimerWheel, WrapsAroundManyTimes) {
  Wheel w(6);
  std::uint64_t at = 0;
  for (int i = 0; i < 1000; ++i) {
    at += 37;  // co-prime with 64: exercises every residue
    w.push(at, static_cast<std::uint32_t>(i));
    const auto due = drain(w, at);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].first, at);
    EXPECT_EQ(due[0].second, static_cast<std::uint32_t>(i));
  }
}

TEST(TimerWheel, EmptyAfterDrainAcrossWrapThenReusable) {
  Wheel w(6);
  // Entries straddle the ring's end (residues 60..63 and 0..3), so the
  // drain that empties the wheel crosses the wrap.
  for (std::uint32_t i = 0; i < 8; ++i) w.push(60 + i, i);
  EXPECT_EQ(drain(w, 67).size(), 8u);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.next_due(), Wheel::kNone);
  EXPECT_TRUE(drain(w, 200).empty());
  EXPECT_EQ(w.current(), 201u);
  EXPECT_EQ(w.next_due(), Wheel::kNone);
  // The emptied wheel schedules and drains normally again, one wrap on.
  w.push(250, 7);
  w.push(203, 9);
  EXPECT_EQ(w.next_due(), 203u);
  EXPECT_EQ(drain(w, 250), (std::vector<Due>{{203, 9}, {250, 7}}));
  EXPECT_EQ(w.next_due(), Wheel::kNone);
}

// The wheel must reproduce a (cycle, payload) min-heap's pop order exactly:
// the MTA machine's arbitration depends on it.
TEST(TimerWheel, MatchesReferenceHeapOnRandomSchedules) {
  struct Greater {
    bool operator()(const Due& a, const Due& b) const { return a > b; }
  };
  SplitMix64 rng(0xfeedu);
  for (int round = 0; round < 20; ++round) {
    Wheel w(6);
    std::priority_queue<Due, std::vector<Due>, Greater> heap;
    std::uint64_t now = 0;
    for (int step = 0; step < 400; ++step) {
      const int pushes = static_cast<int>(rng.next() % 4);
      for (int i = 0; i < pushes; ++i) {
        // Mostly short offsets (like issue spacing / memory latency), some
        // far beyond the 64-cycle horizon, occasional duplicates.
        const std::uint64_t span = (rng.next() % 8 == 0) ? 500 : 90;
        const std::uint64_t at = now + 1 + rng.next() % span;
        const auto payload = static_cast<std::uint32_t>(rng.next() % 16);
        w.push(at, payload);
        heap.emplace(at, payload);
      }
      // Advance like the machine loop: either one cycle or jump to the
      // next due cycle.
      if (rng.next() % 2 == 0) {
        ++now;
      } else if (!heap.empty()) {
        now = std::max(now + 1, heap.top().first);
      }
      std::vector<Due> expect;
      while (!heap.empty() && heap.top().first <= now) {
        expect.push_back(heap.top());
        heap.pop();
      }
      ASSERT_EQ(drain(w, now), expect) << "round " << round << " step " << step;
      ASSERT_EQ(w.size(), heap.size());
      if (!heap.empty()) {
        ASSERT_EQ(w.next_due(), heap.top().first);
      }
    }
  }
}

}  // namespace
}  // namespace tc3i::sim
