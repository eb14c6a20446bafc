#include "c3i/terrain/terrain.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/rng.hpp"

namespace tc3i::c3i::terrain {

Grid::Grid(int x_size, int y_size, double fill_value)
    : x_size_(x_size),
      y_size_(y_size),
      data_(static_cast<std::size_t>(x_size) * static_cast<std::size_t>(y_size),
            fill_value) {
  TC3I_EXPECTS(x_size > 0 && y_size > 0);
}

Grid::Grid(int x_size, int y_size, std::vector<double> data)
    : x_size_(x_size), y_size_(y_size), data_(std::move(data)) {
  TC3I_EXPECTS(x_size > 0 && y_size > 0);
  TC3I_EXPECTS(data_.size() == static_cast<std::size_t>(x_size) *
                                   static_cast<std::size_t>(y_size));
}

void Grid::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

Region Region::intersect(const Region& o) const {
  Region r;
  r.x0 = std::max(x0, o.x0);
  r.y0 = std::max(y0, o.y0);
  r.x1 = std::min(x1, o.x1);
  r.y1 = std::min(y1, o.y1);
  return r;
}

Region threat_region(int x_size, int y_size, const GroundThreat& threat) {
  TC3I_EXPECTS(threat.x >= 0 && threat.x < x_size && threat.y >= 0 &&
               threat.y < y_size);
  TC3I_EXPECTS(threat.radius >= 0);
  Region r;
  r.x0 = std::max(0, threat.x - threat.radius);
  r.y0 = std::max(0, threat.y - threat.radius);
  r.x1 = std::min(x_size - 1, threat.x + threat.radius);
  r.y1 = std::min(y_size - 1, threat.y + threat.radius);
  return r;
}

Region threat_region(const Grid& terrain, const GroundThreat& threat) {
  return threat_region(terrain.x_size(), terrain.y_size(), threat);
}

namespace {

/// Deterministic lattice noise value at integer coordinates.
double lattice(std::uint64_t seed, int xi, int yi) {
  SplitMix64 sm(seed ^ (static_cast<std::uint64_t>(xi) * 0x9e3779b97f4a7c15ULL) ^
                (static_cast<std::uint64_t>(yi) * 0xc2b2ae3d27d4eb4fULL));
  return static_cast<double>(sm.next() >> 11) * 0x1.0p-53;
}

double smoothstep(double t) { return t * t * (3.0 - 2.0 * t); }

/// Bilinear value noise at (x, y) with lattice spacing `period`.
double value_noise(std::uint64_t seed, double x, double y, double period) {
  const double fx = x / period;
  const double fy = y / period;
  const int x0 = static_cast<int>(std::floor(fx));
  const int y0 = static_cast<int>(std::floor(fy));
  const double tx = smoothstep(fx - x0);
  const double ty = smoothstep(fy - y0);
  const double v00 = lattice(seed, x0, y0);
  const double v10 = lattice(seed, x0 + 1, y0);
  const double v01 = lattice(seed, x0, y0 + 1);
  const double v11 = lattice(seed, x0 + 1, y0 + 1);
  const double a = v00 + (v10 - v00) * tx;
  const double b = v01 + (v11 - v01) * tx;
  return a + (b - a) * ty;
}

}  // namespace

Grid generate_terrain(std::uint64_t seed, int x_size, int y_size,
                      double max_elevation) {
  TC3I_EXPECTS(max_elevation > 0.0);
  Grid g(x_size, y_size);
  // Octave periods scale with terrain size so scaled-down scenarios keep
  // the same large-scale structure.
  const double base_period = std::max(8.0, static_cast<double>(x_size) / 8.0);
  const double octaves[4][2] = {
      {base_period, 0.55},
      {base_period / 3.0, 0.25},
      {base_period / 9.0, 0.13},
      {base_period / 27.0, 0.07},
  };
  for (int y = 0; y < y_size; ++y) {
    for (int x = 0; x < x_size; ++x) {
      double v = 0.0;
      for (const auto& [period, weight] : octaves)
        v += weight * value_noise(seed, x, y, std::max(2.0, period));
      g.at(x, y) = v * max_elevation;
    }
  }
  return g;
}

}  // namespace tc3i::c3i::terrain
