// Headline validation of the critical-path what-if projections: for each
// machine model, three scenarios with different bottlenecks (compute /
// issue, memory, synchronization) are captured once, projected under a 2x
// cost change with obs::whatif::project, and then actually re-simulated
// with the corresponding MtaConfig / SmpConfig change. The projection must
// land within 10% of the re-simulated runtime — on the MTA, on both the
// fast and the slow-reference simulation paths, whose captured graphs must
// also be identical node for node.
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "mta/machine.hpp"
#include "mta/stream_program.hpp"
#include "obs/context.hpp"
#include "obs/critpath.hpp"
#include "obs/run_record.hpp"
#include "obs/whatif.hpp"
#include "sim/trace.hpp"
#include "smp/machine.hpp"

namespace {

using namespace tc3i;

constexpr double kTolerance = 0.10;

// --- MTA -------------------------------------------------------------------

struct MtaCapture {
  std::uint64_t cycles = 0;
  obs::DepGraph graph;
  obs::CritPathSummary summary;
};

/// Runs the scenario under a retaining capture store and returns the run
/// length, the captured graph, and the RunRecord's critical_path summary.
MtaCapture run_mta_captured(
    const mta::MtaConfig& cfg,
    const std::function<void(mta::Machine&, mta::ProgramPool&)>& build) {
  obs::CritPathStore store(/*retain_graphs=*/true);
  obs::RunRecordStore records;
  obs::Context ctx = obs::current_context();
  ctx.critpath = &store;
  ctx.records = &records;
  const obs::ScopedContext scope(ctx);
  mta::Machine m(cfg);
  mta::ProgramPool pool;
  build(m, pool);
  const mta::MtaRunResult r = m.run();
  MtaCapture out;
  out.cycles = r.cycles;
  const auto graphs = store.graphs();
  EXPECT_EQ(graphs.size(), 1u);
  if (!graphs.empty()) out.graph = graphs.front();
  const auto recs = records.records();
  EXPECT_EQ(recs.size(), 1u);
  if (!recs.empty()) out.summary = recs.front().critical_path;
  return out;
}

/// Plain run, no capture: the re-simulation ground truth.
std::uint64_t run_mta_plain(
    const mta::MtaConfig& cfg,
    const std::function<void(mta::Machine&, mta::ProgramPool&)>& build) {
  mta::Machine m(cfg);
  mta::ProgramPool pool;
  build(m, pool);
  return m.run().cycles;
}

void expect_graphs_identical(const obs::DepGraph& a, const obs::DepGraph& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  ASSERT_EQ(a.edges.size(), b.edges.size());
  EXPECT_DOUBLE_EQ(a.total, b.total);
  EXPECT_EQ(a.end_node, b.end_node);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.nodes[i].time, b.nodes[i].time) << "node " << i;
    EXPECT_EQ(a.nodes[i].first_edge, b.nodes[i].first_edge) << "node " << i;
    EXPECT_EQ(a.nodes[i].num_edges, b.nodes[i].num_edges) << "node " << i;
  }
  for (std::size_t j = 0; j < a.edges.size(); ++j) {
    EXPECT_EQ(a.edges[j].pred, b.edges[j].pred) << "edge " << j;
    EXPECT_FLOAT_EQ(a.edges[j].weight, b.edges[j].weight) << "edge " << j;
    EXPECT_FLOAT_EQ(a.edges[j].fixed, b.edges[j].fixed) << "edge " << j;
    EXPECT_EQ(a.edges[j].kind, b.edges[j].kind) << "edge " << j;
    EXPECT_EQ(a.edges[j].knob, b.edges[j].knob) << "edge " << j;
  }
}

void expect_attribution_exact(const obs::CritPathSummary& s) {
  ASSERT_TRUE(s.present);
  const double buckets =
      s.compute + s.memory + s.sync + s.spawn + s.queue + s.gap;
  EXPECT_NEAR(buckets, s.total, 1e-6 * std::max(1.0, s.total));
}

/// The core contract: projecting `scale` on the graph captured from `cfg`
/// must land within kTolerance of actually re-simulating with
/// `changed_cfg` — on both MTA simulation paths.
void check_mta_projection(
    const mta::MtaConfig& cfg, const mta::MtaConfig& changed_cfg,
    const obs::whatif::Scale& scale,
    const std::function<void(mta::Machine&, mta::ProgramPool&)>& build,
    const std::string& label) {
  for (const bool slow : {false, true}) {
    mta::MtaConfig base = cfg;
    base.slow_reference = slow;
    mta::MtaConfig changed = changed_cfg;
    changed.slow_reference = slow;

    const MtaCapture cap = run_mta_captured(base, build);
    expect_attribution_exact(cap.summary);
    EXPECT_GT(cap.summary.coverage, 0.85) << label;

    const double predicted =
        obs::whatif::project(cap.graph, scale).predicted;
    const auto resim = static_cast<double>(run_mta_plain(changed, build));
    EXPECT_NEAR(predicted, resim, kTolerance * resim)
        << label << (slow ? " [slow]" : " [fast]");
  }

  // Fast and slow-reference paths must capture the identical graph.
  mta::MtaConfig fast_cfg = cfg;
  fast_cfg.slow_reference = false;
  mta::MtaConfig slow_cfg = cfg;
  slow_cfg.slow_reference = true;
  const MtaCapture fast = run_mta_captured(fast_cfg, build);
  const MtaCapture slow = run_mta_captured(slow_cfg, build);
  EXPECT_EQ(fast.cycles, slow.cycles) << label;
  expect_graphs_identical(fast.graph, slow.graph);
}

TEST(WhatIfMta, ComputeBoundScalesWithIssueSpacing) {
  mta::MtaConfig cfg;
  cfg.name = "whatif-compute";
  cfg.num_processors = 1;
  cfg.streams_per_processor = 8;
  const auto build = [](mta::Machine& m, mta::ProgramPool& pool) {
    for (int i = 0; i < 3; ++i) {
      mta::VectorProgram* p = pool.make_vector();
      p->compute(2000);
      m.add_stream(p);
    }
  };
  mta::MtaConfig changed = cfg;
  changed.issue_spacing_cycles *= 2;
  obs::whatif::Scale scale;
  scale.compute = 2.0;
  check_mta_projection(cfg, changed, scale, build, "mta compute-bound");
}

TEST(WhatIfMta, MemoryBoundScalesWithLatency) {
  mta::MtaConfig cfg;
  cfg.name = "whatif-memory";
  cfg.num_processors = 1;
  cfg.streams_per_processor = 8;
  const auto build = [](mta::Machine& m, mta::ProgramPool& pool) {
    mta::VectorProgram* p = pool.make_vector();
    p->load(128, 500);
    m.add_stream(p);
  };
  mta::MtaConfig changed = cfg;
  changed.memory_latency_cycles *= 2;
  obs::whatif::Scale scale;
  scale.memory_latency = 2.0;
  check_mta_projection(cfg, changed, scale, build, "mta memory-bound");
}

TEST(WhatIfMta, SyncRingScalesWithLatency) {
  // A token circulates a ring of streams through full/empty cells: every
  // hop is a sync_store hand-off whose resume costs one network round
  // trip, so the run scales with memory latency through the sync chain.
  constexpr int kStreams = 4;
  constexpr int kRounds = 50;
  constexpr mta::Address kBase = 70000;
  mta::MtaConfig cfg;
  cfg.name = "whatif-sync";
  cfg.num_processors = 2;
  cfg.streams_per_processor = 8;
  const auto build = [](mta::Machine& m, mta::ProgramPool& pool) {
    for (int i = 0; i < kStreams; ++i) {
      mta::VectorProgram* p = pool.make_vector();
      for (int r = 0; r < kRounds; ++r) {
        p->sync_load(kBase + static_cast<mta::Address>(i));
        p->sync_store(kBase + static_cast<mta::Address>((i + 1) % kStreams),
                      1);
      }
      m.add_stream(p);
    }
    m.memory().store_full(kBase, 1);
  };
  mta::MtaConfig changed = cfg;
  changed.memory_latency_cycles *= 2;
  obs::whatif::Scale scale;
  scale.memory_latency = 2.0;
  check_mta_projection(cfg, changed, scale, build, "mta sync-ring");
}

TEST(WhatIfMta, CaptureOffLeavesRecordEmpty) {
  mta::MtaConfig cfg;
  cfg.name = "whatif-off";
  obs::RunRecordStore records;
  obs::Context ctx = obs::current_context();
  ctx.records = &records;
  const obs::ScopedContext scope(ctx);
  mta::Machine m(cfg);
  mta::ProgramPool pool;
  mta::VectorProgram* p = pool.make_vector();
  p->compute(100);
  m.add_stream(p);
  (void)m.run();
  const auto recs = records.records();
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_FALSE(recs.front().critical_path.present);
}

TEST(WhatIfMta, LookaheadDisablesCapture) {
  mta::MtaConfig cfg;
  cfg.name = "whatif-lookahead";
  cfg.lookahead = 4;
  obs::CritPathStore store(/*retain_graphs=*/true);
  obs::Context ctx = obs::current_context();
  ctx.critpath = &store;
  const obs::ScopedContext scope(ctx);
  mta::Machine m(cfg);
  mta::ProgramPool pool;
  mta::VectorProgram* p = pool.make_vector();
  p->load(64, 50);
  m.add_stream(p);
  (void)m.run();
  EXPECT_EQ(store.size(), 0u);
}

// --- SMP -------------------------------------------------------------------

struct SmpCapture {
  double elapsed = 0.0;
  obs::DepGraph graph;
  obs::CritPathSummary summary;
};

SmpCapture run_smp_captured(const smp::SmpConfig& cfg,
                            const sim::WorkloadTrace& workload) {
  obs::CritPathStore store(/*retain_graphs=*/true);
  obs::RunRecordStore records;
  obs::Context ctx = obs::current_context();
  ctx.critpath = &store;
  ctx.records = &records;
  const obs::ScopedContext scope(ctx);
  smp::Machine m(cfg);
  const smp::RunResult r = m.run(workload);
  SmpCapture out;
  out.elapsed = r.elapsed;
  const auto graphs = store.graphs();
  EXPECT_EQ(graphs.size(), 1u);
  if (!graphs.empty()) out.graph = graphs.front();
  const auto recs = records.records();
  EXPECT_EQ(recs.size(), 1u);
  if (!recs.empty()) out.summary = recs.front().critical_path;
  return out;
}

double run_smp_plain(const smp::SmpConfig& cfg,
                     const sim::WorkloadTrace& workload) {
  return smp::Machine(cfg).run(workload).elapsed;
}

void check_smp_projection(const smp::SmpConfig& cfg,
                          const smp::SmpConfig& changed,
                          const obs::whatif::Scale& scale,
                          const sim::WorkloadTrace& workload,
                          const std::string& label) {
  const SmpCapture cap = run_smp_captured(cfg, workload);
  expect_attribution_exact(cap.summary);
  EXPECT_GT(cap.summary.coverage, 0.85) << label;
  const double predicted = obs::whatif::project(cap.graph, scale).predicted;
  const double resim = run_smp_plain(changed, workload);
  EXPECT_NEAR(predicted, resim, kTolerance * resim) << label;
}

smp::SmpConfig base_smp_config() {
  smp::SmpConfig cfg;
  cfg.name = "whatif-smp";
  cfg.num_processors = 4;
  cfg.clock_hz = 1e8;
  cfg.compute_rate_ips = 1e8;
  cfg.mem_bw_single = 1e8;
  cfg.mem_bw_total = 2e8;
  return cfg;
}

TEST(WhatIfSmp, ComputeBoundScalesWithComputeRate) {
  const smp::SmpConfig cfg = base_smp_config();
  sim::WorkloadTrace workload;
  for (int i = 0; i < 4; ++i) {
    sim::ThreadTrace t;
    t.compute(10'000'000, 0);
    workload.threads.push_back(std::move(t));
  }
  smp::SmpConfig changed = cfg;
  changed.compute_rate_ips /= 2.0;
  obs::whatif::Scale scale;
  scale.compute = 2.0;
  check_smp_projection(cfg, changed, scale, workload, "smp compute-bound");
}

TEST(WhatIfSmp, MemoryBoundScalesWithBandwidth) {
  const smp::SmpConfig cfg = base_smp_config();
  sim::WorkloadTrace workload;
  for (int i = 0; i < 4; ++i) {
    sim::ThreadTrace t;
    t.compute(100'000, 20'000'000);
    workload.threads.push_back(std::move(t));
  }
  smp::SmpConfig changed = cfg;
  changed.mem_bw_single /= 2.0;
  changed.mem_bw_total /= 2.0;
  obs::whatif::Scale scale;
  scale.memory_latency = 2.0;
  check_smp_projection(cfg, changed, scale, workload, "smp memory-bound");
}

TEST(WhatIfSmp, LockBoundScalesWithLockCost) {
  smp::SmpConfig cfg = base_smp_config();
  cfg.num_processors = 2;
  cfg.lock_cycles = 40'000.0;  // 400 us per acquire at 1e8 Hz
  sim::WorkloadTrace workload;
  workload.num_locks = 1;
  for (int i = 0; i < 2; ++i) {
    sim::ThreadTrace t;
    for (int r = 0; r < 50; ++r) {
      t.acquire(0);
      t.compute(1'000, 0);
      t.release(0);
    }
    workload.threads.push_back(std::move(t));
  }
  smp::SmpConfig changed = cfg;
  changed.lock_cycles *= 2.0;
  obs::whatif::Scale scale;
  scale.sync_cost = 2.0;
  check_smp_projection(cfg, changed, scale, workload, "smp lock-bound");
}

}  // namespace
