// Bottleneck verdicts from a RunReport JSON.
//
//   bottleneck_report report.json [report2.json ...]
//
// For every machine run recorded in each report's "machine_runs" array,
// prints one `verdict` line naming the limiting resource in the paper's
// vocabulary (issue-limited, parallelism-limited, sync-limited,
// memory-bank-limited, bus-limited, lock-limited) followed by the shares
// the classification was based on, then a per-model aggregate verdict.
// Exits 0 when every report parses and contains at least one machine run,
// 1 otherwise. Thresholds are the obs::VerdictThresholds defaults,
// documented in docs/OBSERVABILITY.md.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bottleneck.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"

namespace {

int process_report(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path);
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  const auto doc = tc3i::obs::json_parse(buf.str(), &error);
  if (!doc) {
    std::fprintf(stderr, "%s: %s\n", path, error.c_str());
    return 1;
  }
  const std::vector<tc3i::obs::RunRecord> runs =
      tc3i::obs::machine_runs_from_json(*doc);
  std::printf("%s: bench %s, %zu machine run%s\n", path,
              doc->string_or("bench", "?").c_str(), runs.size(),
              runs.size() == 1 ? "" : "s");
  if (runs.empty()) {
    std::fprintf(stderr, "%s: no machine_runs to classify (run the bench "
                 "under a schema-version >= 2 build)\n", path);
    return 1;
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const tc3i::obs::RunRecord& r = runs[i];
    std::printf("verdict run=%zu model=%s name=%s: %s\n", i, r.model.c_str(),
                r.name.c_str(),
                tc3i::obs::verdict_name(tc3i::obs::classify(r)));
    std::printf("    %s\n", tc3i::obs::explain(r).c_str());
  }
  for (const char* model : {"mta", "smp"}) {
    tc3i::obs::RunRecord agg;
    const std::size_t n = tc3i::obs::aggregate(runs, model, &agg);
    if (n == 0) continue;
    std::printf("verdict aggregate model=%s runs=%zu: %s\n", model, n,
                tc3i::obs::verdict_name(tc3i::obs::classify(agg)));
    std::printf("    %s\n", tc3i::obs::explain(agg).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bottleneck_report <report.json> [...]\n");
    return 2;
  }
  int failures = 0;
  for (int i = 1; i < argc; ++i) failures += process_report(argv[i]);
  return failures == 0 ? 0 : 1;
}
