#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "mta/stream_program.hpp"
#include "obs/counters.hpp"
#include "platforms/calibration.hpp"
#include "platforms/experiment.hpp"
#include "platforms/paper.hpp"
#include "platforms/platform.hpp"

namespace tc3i::platforms {
namespace {

TEST(Calibration, RecoversExactRatesFromSyntheticAnchors) {
  // Construct anchors from known rates; solve_rates must invert exactly.
  const double rc = 5e7, rm = 3e7;
  WorkloadTotals totals;
  totals.threat_ops = 1e10;
  totals.threat_bytes = 2e8;
  totals.terrain_ops = 3e9;
  totals.terrain_bytes = 2e9;
  SequentialAnchors anchors;
  anchors.threat_seconds = totals.threat_ops / rc + totals.threat_bytes / rm;
  anchors.terrain_seconds = totals.terrain_ops / rc + totals.terrain_bytes / rm;
  const CalibratedRates rates = solve_rates(anchors, totals);
  EXPECT_NEAR(rates.compute_rate_ips, rc, rc * 1e-9);
  EXPECT_NEAR(rates.mem_bw_single, rm, rm * 1e-9);
}

TEST(Calibration, SolutionReproducesAnchors) {
  WorkloadTotals totals;
  totals.threat_ops = 2e10;
  totals.threat_bytes = 5e8;
  totals.terrain_ops = 6e9;
  totals.terrain_bytes = 3.4e9;
  SequentialAnchors anchors{458.0, 197.0};
  const CalibratedRates rates = solve_rates(anchors, totals);
  EXPECT_NEAR(totals.threat_ops / rates.compute_rate_ips +
                  totals.threat_bytes / rates.mem_bw_single,
              anchors.threat_seconds, 1e-6);
  EXPECT_NEAR(totals.terrain_ops / rates.compute_rate_ips +
                  totals.terrain_bytes / rates.mem_bw_single,
              anchors.terrain_seconds, 1e-6);
}

TEST(CalibrationDeathTest, RejectsInconsistentAnchors) {
  WorkloadTotals totals;
  totals.threat_ops = 1e10;
  totals.threat_bytes = 1e6;  // nearly pure compute
  totals.terrain_ops = 1e10;
  totals.terrain_bytes = 2e6;
  // Terrain much *faster* than threat despite equal compute: impossible
  // without a negative memory rate.
  SequentialAnchors anchors{400.0, 100.0};
  EXPECT_DEATH((void)solve_rates(anchors, totals), "calibration");
}

TEST(CalibrationDeathTest, RejectsCollinearWorkloads) {
  WorkloadTotals totals;
  totals.threat_ops = 1e10;
  totals.threat_bytes = 1e9;
  totals.terrain_ops = 2e10;
  totals.terrain_bytes = 2e9;  // exactly proportional: singular system
  SequentialAnchors anchors{100.0, 200.0};
  EXPECT_DEATH((void)solve_rates(anchors, totals), "collinear");
}

TEST(PlatformSpecs, MatchTableOne) {
  EXPECT_EQ(alpha_spec().processors, 1);
  EXPECT_DOUBLE_EQ(alpha_spec().clock_hz, 500e6);
  EXPECT_EQ(ppro_spec().processors, 4);
  EXPECT_DOUBLE_EQ(ppro_spec().clock_hz, 200e6);
  EXPECT_EQ(exemplar_spec().processors, 16);
  EXPECT_DOUBLE_EQ(exemplar_spec().clock_hz, 180e6);
  EXPECT_EQ(tera_spec().processors, 2);
  EXPECT_DOUBLE_EQ(tera_spec().clock_hz, 255e6);
}

TEST(PlatformSpecs, ConventionalThreadCostsDwarfMtaCosts) {
  // The paper's §7 contrast: tens of thousands+ cycles vs a few cycles.
  const auto mta = make_mta_config(1);
  for (const auto& spec : {ppro_spec(), exemplar_spec()}) {
    EXPECT_GE(spec.thread_spawn_cycles, 10'000.0);
    EXPECT_GT(spec.thread_spawn_cycles / mta.sw_spawn_cycles, 100.0);
    EXPECT_GE(spec.lock_cycles, 100.0);
  }
}

TEST(PlatformSpecs, SmpConfigBuildsValid) {
  const smp::SmpConfig cfg = make_smp_config(exemplar_spec(), 5e7, 2e7);
  EXPECT_EQ(cfg.validate(), "");
  EXPECT_EQ(cfg.num_processors, 16);
  EXPECT_NEAR(cfg.mem_bw_total / cfg.mem_bw_single,
              exemplar_spec().bus_headroom, 1e-12);
}

TEST(PlatformSpecs, MtaConfigMatchesArchitectureSection) {
  const auto cfg = make_mta_config(2);
  EXPECT_EQ(cfg.validate(), "");
  EXPECT_EQ(cfg.streams_per_processor, 128);  // "128 hardware threads"
  EXPECT_EQ(cfg.issue_spacing_cycles, 21);    // "one instr every 21 cycles"
  EXPECT_EQ(cfg.hw_spawn_cycles, 2);          // "2 cycles overhead"
  EXPECT_GE(cfg.sw_spawn_cycles, 50);         // "50-100 cycles"
  EXPECT_LE(cfg.sw_spawn_cycles, 100);
  EXPECT_DOUBLE_EQ(cfg.clock_hz, 255e6);      // "255 MHz clock speed"
}

TEST(PaperNumbers, TablesAreInternallyConsistent) {
  // Spot-check the transcription: Table 7/12 summary values match the
  // per-table values they summarize.
  EXPECT_DOUBLE_EQ(paper::threat_ppro_rows().back().seconds, 117.0);
  EXPECT_DOUBLE_EQ(paper::threat_exemplar_rows().back().seconds, 22.0);
  EXPECT_DOUBLE_EQ(paper::terrain_ppro_rows().back().seconds, 65.0);
  EXPECT_DOUBLE_EQ(paper::terrain_exemplar_rows().back().seconds, 37.0);
  EXPECT_DOUBLE_EQ(paper::threat_tera_chunk_rows().back().seconds,
                   paper::kThreatTera2Proc);
  EXPECT_EQ(paper::threat_exemplar_rows().size(), 16u);
  EXPECT_EQ(paper::terrain_exemplar_rows().size(), 16u);
}

TEST(RunMtaPoints, PerRunWallTimeFitsInTheCallsElapsedTime) {
  // mta.run.wall_seconds charges each run only its own host time: at
  // --jobs 1 the runs execute back to back, so their sum cannot exceed the
  // time the whole call took.
  std::vector<MtaPoint> points;
  for (int i = 0; i < 4; ++i) {
    MtaPoint p;
    p.batch.config.memory_words = 1u << 12;
    p.batch.scenario = "wall_time";
    p.batch.build = [i](mta::Machine& m, mta::ProgramPool& pool) {
      mta::VectorProgram* v = pool.make_vector();
      for (int r = 0; r < 200; ++r) {
        v->compute(8 + i);
        v->load(static_cast<mta::Address>(r));
      }
      m.add_stream(v);
    };
    points.push_back(std::move(p));
  }
  obs::CounterRegistry registry;
  const obs::ScopedRegistry scope(registry);
  const auto start = std::chrono::steady_clock::now();
  const std::vector<double> seconds = run_mta_points(points, /*jobs=*/1);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  ASSERT_EQ(seconds.size(), points.size());
  for (const double s : seconds) EXPECT_GT(s, 0.0);
  obs::Histogram& wall = registry.histogram("mta.run.wall_seconds");
  EXPECT_EQ(wall.count(), points.size());
  EXPECT_GT(wall.sum(), 0.0);
  EXPECT_LE(wall.sum(), elapsed);
}

}  // namespace
}  // namespace tc3i::platforms
