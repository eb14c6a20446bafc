#include "sim/sweep.hpp"

namespace tc3i::sim {

int resolve_jobs(int requested) {
  if (requested == 0)
    return static_cast<int>(sthreads::Thread::hardware_concurrency());
  return requested < 1 ? 1 : requested;
}

std::vector<double> run_sweep(const std::vector<std::function<double()>>& points,
                              int jobs) {
  return run_sweep(points.size(), jobs,
                   [&points](std::size_t i) { return points[i](); });
}

}  // namespace tc3i::sim
