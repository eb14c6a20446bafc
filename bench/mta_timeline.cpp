// Issue-slot utilization over time on the (simulated) MTA — the picture
// behind the paper's aggregate numbers. The chunked Threat Analysis
// reaches a flat ~100% plateau and decays as chunks finish unevenly; the
// fine-grained Terrain Masking shows the per-ring barrier valleys that
// keep its average utilization well below 1 (Table 11's story).
#include <iostream>
#include <vector>

#include "core/chart.hpp"
#include "harness.hpp"

using namespace tc3i;

namespace {

void plot(const std::string& title, const mta::MtaRunResult& result,
          std::uint64_t bucket_cycles) {
  ChartSeries series{"utilization", '#', {}, {}};
  // Downsample the timeline to <= 120 points for the terminal.
  const std::size_t n = result.utilization_timeline.size();
  const std::size_t stride = std::max<std::size_t>(1, n / 120);
  for (std::size_t i = 0; i < n; i += stride) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t j = i; j < std::min(i + stride, n); ++j, ++count)
      sum += result.utilization_timeline[j];
    series.x.push_back(static_cast<double>(i * bucket_cycles) / 1e6);
    series.y.push_back(count > 0 ? sum / static_cast<double>(count) : 0.0);
  }
  AsciiChart chart(title, "Mcycles", "issue-slot utilization", 100, 16);
  chart.add_series(std::move(series));
  chart.render(std::cout);
  std::cout << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  tc3i::bench::Session session("mta_timeline", argc, argv);
  const auto& tb = bench::testbed();
  constexpr std::uint64_t kBucket = 10'000;

  // The three runs are sweep points; the plots render afterwards in order.
  const std::vector<mta::MtaRunResult> runs =
      sim::run_sweep(3, session.jobs(), [&](std::size_t i) {
        mta::MtaConfig cfg = platforms::make_mta_config(1);
        cfg.timeline_bucket_cycles = kBucket;
        mta::Machine machine(cfg);
        mta::ProgramPool pool;
        if (i == 1) {
          c3i::terrain::build_mta_finegrained(pool, machine,
                                              tb.terrain_profile_scaled,
                                              tb.terrain_costs_scaled);
        } else {
          c3i::threat::build_mta_chunked(pool, machine,
                                         tb.threat_profile_scaled,
                                         i == 0 ? 256 : 8,
                                         tb.threat_costs_scaled);
        }
        return machine.run();
      });
  plot("Threat Analysis, 256 chunks, 1 processor", runs[0], kBucket);
  plot("Terrain Masking, fine-grained, 1 processor", runs[1], kBucket);
  plot("Threat Analysis, only 8 chunks (starved), 1 processor", runs[2],
       kBucket);
  std::cout << "Reading: 256 chunks saturate the processor until the tail; "
               "the fine-grained terrain\nschedule oscillates with ring "
               "barriers; 8 chunks never get above ~8/21 of the\nissue "
               "slots — the three regimes behind Tables 5, 11 and 6.\n";
  return 0;
}
