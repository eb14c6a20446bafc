#include "sim/fluid.hpp"

#include <algorithm>
#include <numeric>
#include <string>

#include "core/contracts.hpp"
#include "obs/counters.hpp"

namespace tc3i::sim {

namespace {

// Counters are looked up in the current registry on every call: sweep
// points run under their own scoped registries, which are freed when the
// sweep ends, so no reference into one may be kept across calls.
const std::string kCallsCounter = "sim.fluid.water_fill.calls";
const std::string kSaturatedCounter = "sim.fluid.water_fill.saturated";

}  // namespace

std::vector<double> water_fill(double total_capacity,
                               std::span<const double> private_caps) {
  TC3I_EXPECTS(total_capacity >= 0.0);
  obs::CounterRegistry& registry = obs::default_registry();
  registry.counter(kCallsCounter).add();
  std::vector<double> rates(private_caps.size(), 0.0);
  if (private_caps.empty()) return rates;

  // Iterate: grant every cap below the current fair share, then re-divide.
  std::vector<std::size_t> open(private_caps.size());
  std::iota(open.begin(), open.end(), std::size_t{0});
  double remaining = total_capacity;
  while (!open.empty()) {
    const double fair = remaining / static_cast<double>(open.size());
    bool granted_any = false;
    for (auto it = open.begin(); it != open.end();) {
      const std::size_t i = *it;
      TC3I_EXPECTS(private_caps[i] >= 0.0);
      if (private_caps[i] <= fair) {
        rates[i] = private_caps[i];
        remaining -= private_caps[i];
        it = open.erase(it);
        granted_any = true;
      } else {
        ++it;
      }
    }
    if (!granted_any) {
      // Every remaining flow is capacity-limited: split evenly.
      for (std::size_t i : open) rates[i] = fair;
      registry.counter(kSaturatedCounter).add();
      break;
    }
  }
  return rates;
}

double water_fill_uniform(double total_capacity, int n_flows,
                          double private_cap) {
  TC3I_EXPECTS(n_flows > 0);
  TC3I_EXPECTS(private_cap >= 0.0);
  return std::min(private_cap, total_capacity / n_flows);
}

}  // namespace tc3i::sim
