#include "obs/timeline.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "core/contracts.hpp"

namespace tc3i::obs {

TimelineStore::TimelineStore(std::uint64_t sample_period_cycles)
    : period_(sample_period_cycles) {
  TC3I_EXPECTS(period_ >= 1);
}

void TimelineStore::add(MachineTimeline timeline) {
  std::lock_guard<std::mutex> lock(mu_);
  timelines_.push_back(std::move(timeline));
}

void TimelineStore::merge_from(const TimelineStore& other) {
  TC3I_EXPECTS(&other != this);
  std::vector<MachineTimeline> theirs = other.timelines();
  std::lock_guard<std::mutex> lock(mu_);
  for (MachineTimeline& t : theirs) timelines_.push_back(std::move(t));
}

std::vector<MachineTimeline> TimelineStore::timelines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timelines_;
}

std::size_t TimelineStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return timelines_.size();
}

void TimelineStore::write_csv(std::ostream& out) const {
  const std::vector<MachineTimeline> all = timelines();
  out << "run,model,name,series,cycle,value\n";
  char value_buf[32];
  for (std::size_t run = 0; run < all.size(); ++run) {
    const MachineTimeline& t = all[run];
    for (const TimelineSeries& s : t.series) {
      for (const TimelinePoint& p : s.points) {
        std::snprintf(value_buf, sizeof value_buf, "%.10g", p.value);
        out << run << ',' << t.model << ',' << t.name << ',' << s.name << ','
            << p.cycle << ',' << value_buf << '\n';
      }
    }
  }
}

bool TimelineStore::write_csv_file(const std::string& path,
                                   std::string* error) const {
  TC3I_EXPECTS(!path.empty());
  std::error_code ec;
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  write_csv(out);
  return static_cast<bool>(out);
}

std::string validate_timeline_csv(const std::string& text) {
  constexpr const char* kHeader = "run,model,name,series,cycle,value";
  std::size_t pos = 0;
  std::size_t line_no = 0;
  // Last seen cycle per run+series key, to enforce the strictly
  // increasing sample grid write_csv guarantees.
  std::map<std::string, std::uint64_t> last_cycle;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    const std::string at = "line " + std::to_string(line_no) + ": ";
    if (line_no == 1) {
      if (line != kHeader)
        return at + "header is \"" + line + "\", expected \"" + kHeader +
               "\"";
      continue;
    }
    if (line.empty()) {
      return pos >= text.size() ? "" : at + "blank line inside the table";
    }
    std::vector<std::string> fields;
    std::size_t start = 0;
    while (true) {
      const std::size_t comma = line.find(',', start);
      fields.push_back(line.substr(
          start, comma == std::string::npos ? comma : comma - start));
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (fields.size() != 6)
      return at + std::to_string(fields.size()) + " columns, expected 6";
    char* end = nullptr;
    const unsigned long long run = std::strtoull(fields[0].c_str(), &end, 10);
    if (fields[0].empty() || *end != '\0')
      return at + "run \"" + fields[0] + "\" is not an integer";
    if (fields[1].empty()) return at + "empty model";
    if (fields[3].empty()) return at + "empty series";
    const unsigned long long cycle =
        std::strtoull(fields[4].c_str(), &end, 10);
    if (fields[4].empty() || *end != '\0')
      return at + "cycle \"" + fields[4] + "\" is not an integer";
    const double value = std::strtod(fields[5].c_str(), &end);
    if (fields[5].empty() || *end != '\0')
      return at + "value \"" + fields[5] + "\" is not a number";
    if (value < 0.0)
      return at + "negative value " + fields[5] + " (series " + fields[3] +
             ")";
    const std::string key = std::to_string(run) + "\x1f" + fields[3];
    const auto [it, first] = last_cycle.try_emplace(key, cycle);
    if (!first) {
      if (cycle <= it->second)
        return at + "cycle " + fields[4] + " not strictly increasing for " +
               "run " + fields[0] + " series " + fields[3];
      it->second = cycle;
    }
  }
  if (line_no == 0) return "empty file (missing header)";
  return "";
}

}  // namespace tc3i::obs
