#include "c3i/io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

namespace tc3i::c3i::io {

namespace {

constexpr const char* kThreatMagic = "c3ipbs-threat-scenario-v1";
constexpr const char* kTerrainMagic = "c3ipbs-terrain-scenario-v1";

void set_full_precision(std::ostream& os) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
}

/// Reads one whitespace-delimited token and checks it equals `expected`.
bool expect_token(std::istream& is, const std::string& expected,
                  std::string& error) {
  std::string token;
  if (!(is >> token) || token != expected) {
    error = "expected '" + expected + "', got '" + token + "'";
    return false;
  }
  return true;
}

template <typename T>
bool read_value(std::istream& is, T& out, const char* what,
                std::string& error) {
  if (!(is >> out)) {
    error = std::string("failed to read ") + what;
    return false;
  }
  return true;
}

/// Reads a record count. The count only bounds the record loop: containers
/// grow as records arrive, so a corrupt count fails on the first missing
/// record instead of allocating for records that are not there.
bool read_count(std::istream& is, std::size_t& out, const char* what,
                std::string& error) {
  long long count = 0;
  if (!read_value(is, count, what, error)) return false;
  if (count < 0) {
    error = std::string("negative ") + what;
    return false;
  }
  out = static_cast<std::size_t>(count);
  return true;
}

/// Scenario names may contain spaces; they are written on their own line.
std::string read_rest_of_line(std::istream& is) {
  std::string line;
  std::getline(is >> std::ws, line);
  return line;
}

}  // namespace

void write_scenario(std::ostream& os, const threat::Scenario& scenario) {
  set_full_precision(os);
  os << kThreatMagic << '\n';
  os << "name " << scenario.name << '\n';
  os << "dt " << scenario.dt << '\n';
  os << "weapons " << scenario.weapons.size() << '\n';
  for (const auto& w : scenario.weapons)
    os << "w " << w.pos.x << ' ' << w.pos.y << ' ' << w.pos.z << ' '
       << w.interceptor_speed << ' ' << w.max_range << ' '
       << w.min_intercept_alt << ' ' << w.max_intercept_alt << ' '
       << w.reaction_time << '\n';
  os << "threats " << scenario.threats.size() << '\n';
  for (const auto& t : scenario.threats)
    os << "t " << t.launch_pos.x << ' ' << t.launch_pos.y << ' '
       << t.impact_pos.x << ' ' << t.impact_pos.y << ' ' << t.launch_time
       << ' ' << t.flight_time << ' ' << t.apex_altitude << ' '
       << t.detect_time << '\n';
}

bool read_scenario(std::istream& is, threat::Scenario& out,
                   std::string& error) {
  std::string magic;
  if (!(is >> magic) || magic != kThreatMagic) {
    error = "not a threat scenario file (bad magic '" + magic + "')";
    return false;
  }
  threat::Scenario s;
  if (!expect_token(is, "name", error)) return false;
  s.name = read_rest_of_line(is);
  if (!expect_token(is, "dt", error) || !read_value(is, s.dt, "dt", error))
    return false;
  if (s.dt <= 0.0) {
    error = "dt must be positive";
    return false;
  }

  std::size_t n = 0;
  if (!expect_token(is, "weapons", error) ||
      !read_count(is, n, "weapon count", error))
    return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!expect_token(is, "w", error)) return false;
    threat::Weapon w;
    if (!(is >> w.pos.x >> w.pos.y >> w.pos.z >> w.interceptor_speed >>
          w.max_range >> w.min_intercept_alt >> w.max_intercept_alt >>
          w.reaction_time)) {
      error = "malformed weapon record " + std::to_string(i);
      return false;
    }
    s.weapons.push_back(w);
  }

  if (!expect_token(is, "threats", error) ||
      !read_count(is, n, "threat count", error))
    return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!expect_token(is, "t", error)) return false;
    threat::Threat t;
    if (!(is >> t.launch_pos.x >> t.launch_pos.y >> t.impact_pos.x >>
          t.impact_pos.y >> t.launch_time >> t.flight_time >>
          t.apex_altitude >> t.detect_time)) {
      error = "malformed threat record " + std::to_string(i);
      return false;
    }
    if (t.flight_time <= 0.0) {
      error = "threat " + std::to_string(i) + " has non-positive flight time";
      return false;
    }
    s.threats.push_back(t);
  }
  out = std::move(s);
  return true;
}

void write_scenario(std::ostream& os, const terrain::Scenario& scenario,
                    bool include_heights) {
  set_full_precision(os);
  os << kTerrainMagic << '\n';
  os << "name " << scenario.name << '\n';
  os << "size " << scenario.terrain.x_size() << ' '
     << scenario.terrain.y_size() << '\n';
  os << "threats " << scenario.threats.size() << '\n';
  for (const auto& t : scenario.threats)
    os << "t " << t.x << ' ' << t.y << ' ' << t.sensor_height << ' '
       << t.radius << '\n';
  os << "heights " << (include_heights ? 1 : 0) << '\n';
  if (include_heights) {
    for (int y = 0; y < scenario.terrain.y_size(); ++y) {
      for (int x = 0; x < scenario.terrain.x_size(); ++x) {
        if (x > 0) os << ' ';
        os << scenario.terrain.at(x, y);
      }
      os << '\n';
    }
  }
}

bool read_scenario(std::istream& is, terrain::Scenario& out,
                   std::string& error) {
  std::string magic;
  if (!(is >> magic) || magic != kTerrainMagic) {
    error = "not a terrain scenario file (bad magic '" + magic + "')";
    return false;
  }
  terrain::Scenario s;
  if (!expect_token(is, "name", error)) return false;
  s.name = read_rest_of_line(is);
  int x_size = 0, y_size = 0;
  if (!expect_token(is, "size", error) ||
      !read_value(is, x_size, "x size", error) ||
      !read_value(is, y_size, "y size", error))
    return false;
  if (x_size <= 0 || y_size <= 0) {
    error = "non-positive terrain size";
    return false;
  }

  std::size_t n = 0;
  if (!expect_token(is, "threats", error) ||
      !read_count(is, n, "threat count", error))
    return false;
  for (std::size_t i = 0; i < n; ++i) {
    if (!expect_token(is, "t", error)) return false;
    terrain::GroundThreat t;
    if (!(is >> t.x >> t.y >> t.sensor_height >> t.radius)) {
      error = "malformed threat record " + std::to_string(i);
      return false;
    }
    if (t.x < 0 || t.x >= x_size || t.y < 0 || t.y >= y_size || t.radius < 0) {
      error = "threat " + std::to_string(i) + " outside the terrain";
      return false;
    }
    s.threats.push_back(t);
  }

  int has_heights = 0;
  if (!expect_token(is, "heights", error) ||
      !read_value(is, has_heights, "heights flag", error))
    return false;
  if (has_heights != 0) {
    // Grown as values arrive, like the record lists above: a header
    // claiming a huge grid fails at the first missing height.
    std::vector<double> heights;
    for (int y = 0; y < y_size; ++y)
      for (int x = 0; x < x_size; ++x) {
        double h = 0.0;
        if (!(is >> h)) {
          error = "truncated height grid at (" + std::to_string(x) + ", " +
                  std::to_string(y) + ")";
          return false;
        }
        heights.push_back(h);
      }
    s.terrain = terrain::Grid(x_size, y_size, std::move(heights));
  } else {
    s.terrain = terrain::Grid(1, 1, 0.0);
  }
  out = std::move(s);
  return true;
}

namespace {

template <typename Writer>
bool save_impl(const std::string& path, std::string& error,
               const Writer& writer) {
  std::ofstream os(path);
  if (!os) {
    error = "cannot open '" + path + "' for writing";
    return false;
  }
  writer(os);
  os.flush();
  if (!os) {
    error = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace

bool save_to_file(const std::string& path, const threat::Scenario& scenario,
                  std::string& error) {
  return save_impl(path, error,
                   [&](std::ostream& os) { write_scenario(os, scenario); });
}

bool load_from_file(const std::string& path, threat::Scenario& out,
                    std::string& error) {
  std::ifstream is(path);
  if (!is) {
    error = "cannot open '" + path + "'";
    return false;
  }
  return read_scenario(is, out, error);
}

bool save_to_file(const std::string& path, const terrain::Scenario& scenario,
                  std::string& error, bool include_heights) {
  return save_impl(path, error, [&](std::ostream& os) {
    write_scenario(os, scenario, include_heights);
  });
}

bool load_from_file(const std::string& path, terrain::Scenario& out,
                    std::string& error) {
  std::ifstream is(path);
  if (!is) {
    error = "cannot open '" + path + "'";
    return false;
  }
  return read_scenario(is, out, error);
}

}  // namespace tc3i::c3i::io
