// Strict syntax/schema checker for exported traces, reports and timelines.
//
//   json_check file.json [timeline.csv ...]
//
// Every *.json file must parse as one complete JSON value. Files that look
// like a RunReport (an object carrying "schema_version") additionally get
// a schema pass: the required sections must be present with the right
// kinds, counter names must stick to the [a-z0-9_.] charset, counter
// values must be non-negative, each MTA machine-run's issue-slot account
// must sum to cycles x processors. Members that older schema versions
// carried and v6 no longer writes (v3-v5's optional per-run dependency-
// path section, v5's "anomalies" array) are ignored like any other
// unknown member, so committed older reports still pass.
// Files carrying "kind":"sweep_report" (--sweep-report-out,
// schema_version >= 4) get the SweepReport pass instead: every group
// needs the full metric set with internally consistent summaries
// (count/sum/mean agree, min <= p10 <= p50 <= p90 <= max, non-negative
// rank_error), MTA groups' six slot_share.* means must sum to 1, and the
// host/sched accounting must be present and non-negative. Arguments
// ending in .csv are validated as --timeline-out output instead (exact
// header, six columns, strictly increasing cycle grid per run+series,
// non-negative values — see obs::validate_timeline_csv). Exits 0 when
// every file passes, 1 otherwise (printing the first error per file).
// Used by scripts/check.sh to validate --trace-out / --report-out /
// --timeline-out / --sweep-report-out output without a JSON library.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "obs/timeline.hpp"

namespace {

using tc3i::obs::JsonValue;

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name)
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' ||
          c == '.'))
      return false;
  return true;
}

/// Returns an empty string when `doc` passes the RunReport schema checks,
/// else the first problem found.
std::string check_report_schema(const JsonValue& doc) {
  if (doc.find_string("bench") == nullptr) return "missing string \"bench\"";
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return "missing number \"schema_version\"";
  for (const char* section : {"config", "counters", "gauges", "histograms"})
    if (doc.find_object(section) == nullptr)
      return std::string("missing object \"") + section + "\"";
  for (const char* section : {"rows", "notes"})
    if (doc.find_array(section) == nullptr)
      return std::string("missing array \"") + section + "\"";

  for (const char* section : {"counters", "gauges"}) {
    for (const auto& [name, value] : doc.find_object(section)->object) {
      if (!valid_metric_name(name))
        return std::string(section) + " name \"" + name +
               "\" outside [a-z0-9_.]";
      if (!value.is_number())
        return std::string(section) + "." + name + " is not a number";
      if (section == std::string("counters") && value.number < 0.0)
        return "counters." + name + " is negative";
    }
  }
  for (const auto& [name, value] : doc.find_object("histograms")->object) {
    if (!valid_metric_name(name))
      return "histogram name \"" + name + "\" outside [a-z0-9_.]";
    if (!value.is_object()) return "histograms." + name + " is not an object";
    for (const char* field : {"count", "sum", "p50", "p90", "p99", "max"})
      if (value.find(field) == nullptr)
        return "histograms." + name + " missing \"" + field + "\"";
  }

  if (version->number < 2.0) return "";
  const JsonValue* runs = doc.find_array("machine_runs");
  if (runs == nullptr)
    return "schema_version >= 2 but no \"machine_runs\" array";
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    const JsonValue& run = runs->array[i];
    const std::string at = "machine_runs[" + std::to_string(i) + "]";
    if (!run.is_object()) return at + " is not an object";
    const std::string model = run.string_or("model", "");
    if (model != "mta" && model != "smp")
      return at + ".model is neither \"mta\" nor \"smp\"";
    if (run.find_string("name") == nullptr) return at + " missing name";
    if (const JsonValue* reps = run.find("reps")) {
      // Compact form: the object stands for `reps` consecutive identical
      // records (RunReport's run-length encoding).
      if (!reps->is_number() || reps->number < 1.0)
        return at + ".reps is not a number >= 1";
    }
    const double procs = run.number_or("processors", 0.0);
    if (procs < 1.0) return at + ".processors < 1";
    if (run.find_number("utilization") == nullptr)
      return at + " missing utilization";
    if (model != "mta") continue;
    const JsonValue* slots = run.find_object("slots");
    if (slots == nullptr) return at + " missing slots object";
    double total = 0.0;
    for (const char* field :
         {"used", "no_stream", "spacing", "spawn", "memory", "sync"}) {
      const JsonValue* v = slots->find_number(field);
      if (v == nullptr) return at + ".slots missing \"" + field + "\"";
      if (v->number < 0.0) return at + ".slots." + field + " is negative";
      total += v->number;
    }
    const double expect = run.number_or("cycles", 0.0) * procs;
    if (std::fabs(total - expect) > 0.5)
      return at + ".slots sum to " + std::to_string(total) +
             ", expected cycles x processors = " + std::to_string(expect);
  }
  return "";
}

/// One aggregated metric of a sweep-report group: {count, sum, min, max,
/// mean, p10, p50, p90, rank_error} with internally consistent values.
std::string check_sweep_metric(const JsonValue& m, const std::string& at) {
  if (!m.is_object()) return at + " is not an object";
  for (const char* field : {"count", "sum", "min", "max", "mean", "p10",
                            "p50", "p90", "rank_error"})
    if (m.find_number(field) == nullptr)
      return at + " missing number \"" + field + "\"";
  const double count = m.number_or("count", 0.0);
  if (count < 1.0) return at + ".count < 1";
  if (m.number_or("rank_error", -1.0) < 0.0)
    return at + ".rank_error is negative";
  // Quantiles are order statistics of the same stream: monotone and
  // bracketed by min/max.
  const double seq[5] = {m.number_or("min", 0.0), m.number_or("p10", 0.0),
                         m.number_or("p50", 0.0), m.number_or("p90", 0.0),
                         m.number_or("max", 0.0)};
  const char* names[5] = {"min", "p10", "p50", "p90", "max"};
  for (int i = 0; i + 1 < 5; ++i)
    if (seq[i] > seq[i + 1] + 1e-12)
      return at + ": " + names[i] + " > " + names[i + 1];
  const double mean = m.number_or("mean", 0.0);
  const double tol = 1e-9 + 1e-9 * std::fabs(m.number_or("sum", 0.0));
  if (std::fabs(mean * count - m.number_or("sum", 0.0)) > tol)
    return at + ": mean x count != sum";
  if (mean < seq[0] - 1e-12 || mean > seq[4] + 1e-12)
    return at + ": mean outside [min, max]";
  return "";
}

/// Returns an empty string when `doc` passes the SweepReport
/// (schema_version >= 4, kind "sweep_report") checks, else the first problem.
std::string check_sweep_report_schema(const JsonValue& doc) {
  if (doc.find_string("bench") == nullptr) return "missing string \"bench\"";
  const JsonValue* version = doc.find_number("schema_version");
  if (version == nullptr) return "missing number \"schema_version\"";
  if (version->number < 4.0) return "sweep_report needs schema_version >= 4";
  const JsonValue* runs = doc.find_number("runs");
  if (runs == nullptr || runs->number < 0.0)
    return "missing or negative \"runs\"";
  if (doc.number_or("outlier_k", 0.0) <= 0.0) return "outlier_k <= 0";
  const JsonValue* groups = doc.find_array("groups");
  if (groups == nullptr) return "missing array \"groups\"";
  double total_count = 0.0;
  for (std::size_t i = 0; i < groups->array.size(); ++i) {
    const JsonValue& g = groups->array[i];
    const std::string at = "groups[" + std::to_string(i) + "]";
    if (!g.is_object()) return at + " is not an object";
    const std::string model = g.string_or("model", "");
    if (model != "mta" && model != "smp")
      return at + ".model is neither \"mta\" nor \"smp\"";
    if (g.find_string("name") == nullptr) return at + " missing name";
    if (g.find_string("scenario") == nullptr) return at + " missing scenario";
    if (g.number_or("processors", 0.0) < 1.0) return at + ".processors < 1";
    const double count = g.number_or("count", 0.0);
    if (count < 1.0) return at + ".count < 1";
    total_count += count;
    const std::string unit = g.string_or("wall_unit", "");
    if (unit != "cycles" && unit != "seconds")
      return at + ".wall_unit is neither \"cycles\" nor \"seconds\"";
    const JsonValue* metrics = g.find_object("metrics");
    if (metrics == nullptr) return at + " missing metrics object";
    for (const char* name : {"wall", "utilization", "threads"}) {
      const JsonValue* m = metrics->find(name);
      if (m == nullptr) return at + ".metrics missing \"" + name + "\"";
      const std::string problem =
          check_sweep_metric(*m, at + ".metrics." + name);
      if (!problem.empty()) return problem;
    }
    if (model == "mta") {
      double share_sum = 0.0;
      for (const char* cat :
           {"used", "no_stream", "spacing", "spawn", "memory", "sync"}) {
        const std::string name = std::string("slot_share.") + cat;
        const JsonValue* m = metrics->find(name);
        if (m == nullptr) return at + ".metrics missing \"" + name + "\"";
        const std::string problem =
            check_sweep_metric(*m, at + ".metrics." + name);
        if (!problem.empty()) return problem;
        share_sum += m->number_or("mean", 0.0);
      }
      // Shares are slots.<cat>/slots.total() per run, so the six means of
      // any group must sum to 1 (up to fp accumulation).
      if (std::fabs(share_sum - 1.0) > 1e-6)
        return at + ".metrics slot_share means sum to " +
               std::to_string(share_sum) + ", expected 1";
    }
    const JsonValue* outliers = g.find_array("outlier_runs");
    if (outliers == nullptr) return at + " missing outlier_runs array";
    for (const JsonValue& o : outliers->array)
      if (!o.is_number() || o.number < 0.0 || o.number >= runs->number)
        return at + ".outlier_runs has an out-of-range run index";
  }
  if (total_count != runs->number)
    return "group counts sum to " + std::to_string(total_count) +
           ", expected runs = " + std::to_string(runs->number);
  const JsonValue* host = doc.find_object("host");
  if (host == nullptr) return "missing object \"host\"";
  for (const char* field :
       {"wall_seconds", "user_cpu_seconds", "sys_cpu_seconds", "max_rss_kb",
        "minor_faults", "major_faults", "testbed_cache_hits",
        "testbed_cache_misses"}) {
    const JsonValue* v = host->find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("host.") + field + " missing or negative";
  }
  const JsonValue* sched = host->find_object("sched");
  if (sched == nullptr) return "missing object \"host.sched\"";
  for (const char* field : {"sweeps", "points", "jobs", "queue_wait_seconds",
                            "execute_seconds"}) {
    const JsonValue* v = sched->find_number(field);
    if (v == nullptr || v->number < 0.0)
      return std::string("host.sched.") + field + " missing or negative";
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: json_check <file.json|file.csv> [...]\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "%s: cannot open\n", argv[i]);
      ++failures;
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    const std::string path = argv[i];
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
      const std::string problem = tc3i::obs::validate_timeline_csv(text);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: timeline csv: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, timeline csv ok)\n", argv[i],
                  text.size());
      continue;
    }
    std::string error;
    const auto doc = tc3i::obs::json_parse(text, &error);
    if (!doc) {
      std::fprintf(stderr, "%s: %s\n", argv[i], error.c_str());
      ++failures;
      continue;
    }
    if (doc->is_object() && doc->string_or("kind", "") == "sweep_report") {
      const std::string problem = check_sweep_report_schema(*doc);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: sweep report schema: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, sweep report schema ok)\n", argv[i],
                  text.size());
    } else if (doc->is_object() && doc->find("schema_version") != nullptr) {
      const std::string problem = check_report_schema(*doc);
      if (!problem.empty()) {
        std::fprintf(stderr, "%s: report schema: %s\n", argv[i],
                     problem.c_str());
        ++failures;
        continue;
      }
      std::printf("%s: ok (%zu bytes, report schema ok)\n", argv[i],
                  text.size());
    } else {
      std::printf("%s: ok (%zu bytes)\n", argv[i], text.size());
    }
  }
  return failures == 0 ? 0 : 1;
}
