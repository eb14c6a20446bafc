// Terrain Masking problem model (C3IPBS problem 2 in this reproduction):
// terrain grids and ground-based threats.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/contracts.hpp"

namespace tc3i::c3i::terrain {

/// Altitude used for "no threat constrains this cell".
constexpr double kInfinity = std::numeric_limits<double>::infinity();

/// A row-major grid of doubles (terrain elevations, masking altitudes,
/// per-threat scratch).
class Grid {
 public:
  Grid() = default;
  Grid(int x_size, int y_size, double fill_value = 0.0);
  /// Adopts `data` (row-major, x_size * y_size values) as the grid.
  Grid(int x_size, int y_size, std::vector<double> data);

  [[nodiscard]] int x_size() const { return x_size_; }
  [[nodiscard]] int y_size() const { return y_size_; }
  [[nodiscard]] std::size_t cells() const { return data_.size(); }

  [[nodiscard]] double& at(int x, int y) {
    TC3I_EXPECTS(contains(x, y));
    return data_[static_cast<std::size_t>(y) *
                     static_cast<std::size_t>(x_size_) +
                 static_cast<std::size_t>(x)];
  }
  [[nodiscard]] double at(int x, int y) const {
    TC3I_EXPECTS(contains(x, y));
    return data_[static_cast<std::size_t>(y) *
                     static_cast<std::size_t>(x_size_) +
                 static_cast<std::size_t>(x)];
  }

  [[nodiscard]] bool contains(int x, int y) const {
    return x >= 0 && x < x_size_ && y >= 0 && y < y_size_;
  }

  void fill(double value);

  [[nodiscard]] const std::vector<double>& data() const { return data_; }

  friend bool operator==(const Grid&, const Grid&) = default;

 private:
  int x_size_ = 0;
  int y_size_ = 0;
  std::vector<double> data_;
};

/// A ground-based threat (radar/SAM site) with a square region of
/// influence of half-width `radius` cells.
struct GroundThreat {
  int x = 0;
  int y = 0;
  double sensor_height = 15.0;  ///< sensor mast height above local terrain
  int radius = 0;               ///< region of influence half-width (cells)
};

/// A clipped rectangular region [x0, x1] x [y0, y1] (inclusive).
struct Region {
  int x0 = 0, y0 = 0, x1 = -1, y1 = -1;

  [[nodiscard]] int width() const { return x1 - x0 + 1; }
  [[nodiscard]] int height() const { return y1 - y0 + 1; }
  [[nodiscard]] std::int64_t cell_count() const {
    return static_cast<std::int64_t>(width()) * height();
  }
  [[nodiscard]] bool contains(int x, int y) const {
    return x >= x0 && x <= x1 && y >= y0 && y <= y1;
  }
  [[nodiscard]] bool overlaps(const Region& o) const {
    return x0 <= o.x1 && o.x0 <= x1 && y0 <= o.y1 && o.y0 <= y1;
  }
  [[nodiscard]] Region intersect(const Region& o) const;
};

/// The threat's region of influence clipped to the terrain.
[[nodiscard]] Region threat_region(const Grid& terrain,
                                   const GroundThreat& threat);

/// Geometry-only form (no height field needed).
[[nodiscard]] Region threat_region(int x_size, int y_size,
                                   const GroundThreat& threat);

/// Deterministic synthetic terrain: multi-octave value noise (smooth
/// rolling terrain with ridges), elevations in [0, max_elevation].
[[nodiscard]] Grid generate_terrain(std::uint64_t seed, int x_size, int y_size,
                                    double max_elevation = 1200.0);

}  // namespace tc3i::c3i::terrain
