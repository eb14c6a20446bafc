#include "sim/sweep.hpp"

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

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

namespace detail {

void maybe_inject_slow_point(std::size_t point) {
  struct Injection {
    bool armed = false;
    std::size_t point = 0;
    long millis = 0;
  };
  static const Injection inject = []() {
    Injection in;
    const char* env = std::getenv("TC3I_INJECT_SLOW_POINT");
    if (env == nullptr) return in;
    char* rest = nullptr;
    const long long idx = std::strtoll(env, &rest, 10);
    if (rest == env || *rest != ':') return in;
    const long ms = std::strtol(rest + 1, nullptr, 10);
    if (idx < 0 || ms <= 0) return in;
    in.armed = true;
    in.point = static_cast<std::size_t>(idx);
    in.millis = ms;
    return in;
  }();
  if (!inject.armed || point != inject.point) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(inject.millis));
}

const char* SweepProgress::format_eta(double eta_seconds, char* buf,
                                      std::size_t len) {
  if (!(eta_seconds > 0.0) || !std::isfinite(eta_seconds)) return "?";
  std::snprintf(buf, len, "%.1fs", eta_seconds);
  return buf;
}

SweepProgress::SweepProgress(std::size_t count, const obs::Context& ctx)
    : bus_(count > 0 && ctx.progress && ::isatty(STDERR_FILENO) != 0
               ? ctx.live
               : nullptr) {}

void SweepProgress::tick() const {
  if (bus_ == nullptr) return;
  const obs::LiveBus::Progress p = bus_->progress();
  // Zero completed points means no throughput and no ETA yet; render
  // "eta ?" rather than a meaningless 0.0s (or worse, NaN).
  char eta_buf[32];
  std::fprintf(stderr, "\r[sweep] %llu/%llu  %.1f pts/s eta %s   ",
               static_cast<unsigned long long>(p.done),
               static_cast<unsigned long long>(p.total), p.points_per_sec,
               format_eta(p.eta_seconds, eta_buf, sizeof(eta_buf)));
  std::fflush(stderr);
}

SweepProgress::~SweepProgress() {
  if (bus_ == nullptr) return;
  // Replace the carriage-returned ticker with a final, newline-terminated
  // summary. A bare "\r"-blanked line left the cursor mid-line, so when a
  // sweep finished instantly (e.g. every point served from the testbed
  // cache) the last update was clobbered by whatever stdout printed next.
  const obs::LiveBus::Progress p = bus_->progress();
  std::fprintf(stderr, "\r%*s\r[sweep] %llu/%llu done in %.1fs\n", 60, "",
               static_cast<unsigned long long>(p.done),
               static_cast<unsigned long long>(p.total),
               bus_->now_seconds());
  std::fflush(stderr);
}

}  // namespace detail

}  // namespace tc3i::sim
