#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/rng.hpp"
#include "obs/counters.hpp"

namespace tc3i::sim {
namespace {

TEST(WaterFill, UnconstrainedFlowsGetTheirCaps) {
  const std::vector<double> caps = {1.0, 2.0, 3.0};
  const auto rates = water_fill(100.0, caps);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 2.0);
  EXPECT_DOUBLE_EQ(rates[2], 3.0);
}

TEST(WaterFill, SaturatedSplitsEvenly) {
  const std::vector<double> caps = {10.0, 10.0, 10.0, 10.0};
  const auto rates = water_fill(8.0, caps);
  for (double r : rates) EXPECT_DOUBLE_EQ(r, 2.0);
}

TEST(WaterFill, SmallCapGrantedThenRemainderSplit) {
  // cap 1 flow takes 1; remaining 9 split between the two big flows.
  const std::vector<double> caps = {1.0, 100.0, 100.0};
  const auto rates = water_fill(10.0, caps);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  EXPECT_DOUBLE_EQ(rates[1], 4.5);
  EXPECT_DOUBLE_EQ(rates[2], 4.5);
}

TEST(WaterFill, EmptyFlowsReturnsEmpty) {
  EXPECT_TRUE(water_fill(10.0, std::vector<double>{}).empty());
}

TEST(WaterFill, ZeroCapacityGivesZeroRates) {
  const std::vector<double> caps = {1.0, 2.0};
  for (double r : water_fill(0.0, caps)) EXPECT_DOUBLE_EQ(r, 0.0);
}

TEST(WaterFill, ZeroCapFlowGetsZero) {
  const std::vector<double> caps = {0.0, 5.0};
  const auto rates = water_fill(4.0, caps);
  EXPECT_DOUBLE_EQ(rates[0], 0.0);
  EXPECT_DOUBLE_EQ(rates[1], 4.0);
}

class WaterFillPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaterFillPropertyTest, InvariantsHoldOnRandomInstances) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 24));
    std::vector<double> caps;
    for (int i = 0; i < n; ++i) caps.push_back(rng.uniform(0.0, 10.0));
    const double capacity = rng.uniform(0.0, 40.0);
    const auto rates = water_fill(capacity, caps);

    ASSERT_EQ(rates.size(), caps.size());
    double total = 0.0;
    double cap_total = 0.0;
    for (std::size_t i = 0; i < rates.size(); ++i) {
      EXPECT_GE(rates[i], 0.0);
      EXPECT_LE(rates[i], caps[i] + 1e-9);
      total += rates[i];
      cap_total += caps[i];
    }
    // Work-conserving: all of min(capacity, sum of caps) is allocated.
    EXPECT_NEAR(total, std::min(capacity, cap_total), 1e-9);

    // Max-min fairness: a flow below its cap must be at least as large as
    // every other flow (nobody is starved while another flow exceeds it).
    for (std::size_t i = 0; i < rates.size(); ++i) {
      if (rates[i] < caps[i] - 1e-9) {
        for (std::size_t j = 0; j < rates.size(); ++j)
          EXPECT_LE(rates[j], rates[i] + 1e-9);
      }
    }
  }
}

TEST(WaterFill, CountsIntoTheRegistryCurrentAtEachCall) {
  // Sweep points call water_fill under their own scoped registries, which
  // are freed when the sweep ends: every call must count into the registry
  // current at that call, never into one seen on an earlier call.
  for (int round = 0; round < 2; ++round) {
    obs::CounterRegistry registry;
    {
      const obs::ScopedRegistry scope(registry);
      const std::vector<double> caps{1.0, 1.0, 1.0};
      (void)water_fill(1.5, caps);  // capacity-limited: saturates
      (void)water_fill(5.0, caps);  // every cap granted
    }
    EXPECT_EQ(registry.counter("sim.fluid.water_fill.calls").value(), 2u)
        << "round " << round;
    EXPECT_EQ(registry.counter("sim.fluid.water_fill.saturated").value(), 1u)
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaterFillPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(WaterFillUniform, MatchesGeneralSolver) {
  for (const int n : {1, 2, 5, 17}) {
    for (const double cap : {0.5, 2.0, 10.0}) {
      const double capacity = 6.0;
      const double uniform = water_fill_uniform(capacity, n, cap);
      const std::vector<double> caps(static_cast<std::size_t>(n), cap);
      const auto rates = water_fill(capacity, caps);
      for (double r : rates) EXPECT_NEAR(r, uniform, 1e-12);
    }
  }
}

}  // namespace
}  // namespace tc3i::sim
