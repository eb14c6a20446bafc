// Issue-slot accounting: every available issue slot (cycles x processors)
// must be attributed to exactly one category on BOTH simulation paths, the
// categories must name the actual limiting resource of purpose-built
// workloads, and the per-region rollups must cover exactly the streams
// that ran. The paper-narrative checks at the bottom pin the table 5
// workload's parallelism -> issue-limited transition and table 11's larger
// sync share against the real testbed programs.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "c3i/terrain/trace_builder.hpp"
#include "c3i/threat/trace_builder.hpp"
#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "mta/stream_program.hpp"
#include "obs/bottleneck.hpp"
#include "obs/context.hpp"
#include "obs/run_record.hpp"
#include "platforms/platform.hpp"
#include "platforms/testbed_cache.hpp"

namespace {

using namespace tc3i;
using mta::Machine;
using mta::MtaConfig;
using mta::MtaRunResult;
using mta::ProgramPool;
using mta::VectorProgram;

/// Runs `build` on a fresh machine, collecting its RunRecord, and checks
/// the exhaustiveness invariant before handing both back.
struct Outcome {
  MtaRunResult result;
  obs::RunRecord record;
};

Outcome run_accounted(const MtaConfig& cfg,
                      const std::function<void(Machine&, ProgramPool&)>& build,
                      const std::string& label) {
  obs::RunRecordStore store;
  obs::Context ctx = obs::current_context();
  ctx.records = &store;
  const obs::ScopedContext scope(ctx);
  Machine machine(cfg);
  ProgramPool pool;
  build(machine, pool);
  Outcome out;
  out.result = machine.run();

  const std::uint64_t procs =
      static_cast<std::uint64_t>(cfg.num_processors);
  EXPECT_EQ(out.result.slots.total(), out.result.cycles * procs) << label;
  EXPECT_EQ(out.result.slots.used, out.result.instructions_issued) << label;
  EXPECT_EQ(out.result.processor_slots.size(), procs) << label;
  obs::IssueSlotAccount sum;
  for (const auto& per_proc : out.result.processor_slots) {
    EXPECT_EQ(per_proc.total(), out.result.cycles) << label;
    sum += per_proc;
  }
  EXPECT_EQ(sum, out.result.slots) << label;

  const std::vector<obs::RunRecord> records = store.records();
  EXPECT_EQ(records.size(), 1u) << label;
  if (!records.empty()) {
    out.record = records.front();
    EXPECT_EQ(out.record.model, "mta") << label;
    EXPECT_EQ(out.record.slots, out.result.slots) << label;
    EXPECT_EQ(out.record.cycles, out.result.cycles) << label;
  }
  return out;
}

void build_compute_streams(Machine& m, ProgramPool& pool, int streams,
                           std::uint64_t work) {
  for (int i = 0; i < streams; ++i) {
    VectorProgram* p = pool.make_vector();
    p->compute(work);
    m.add_stream(p);
  }
}

// --- category attribution on purpose-built workloads ------------------------

TEST(SlotAccounting, SingleComputeStreamIsSpacingBound) {
  for (const bool slow : {false, true}) {
    MtaConfig cfg = platforms::make_mta_config(1);
    cfg.slow_reference = slow;
    const Outcome o = run_accounted(
        cfg,
        [](Machine& m, ProgramPool& pool) {
          build_compute_streams(m, pool, 1, 2000);
        },
        slow ? "slow" : "fast");
    // One stream can fill at most 1/21 of the slots; the rest of its
    // life is issue-spacing gaps.
    EXPECT_GT(o.result.slots.spacing, o.result.slots.used);
    EXPECT_EQ(o.result.slots.sync, 0u);
    EXPECT_EQ(o.result.slots.memory, 0u);
  }
}

TEST(SlotAccounting, SaturatedProcessorUsesNearlyEverySlot) {
  for (const bool slow : {false, true}) {
    MtaConfig cfg = platforms::make_mta_config(1);
    cfg.slow_reference = slow;
    const Outcome o = run_accounted(
        cfg,
        [](Machine& m, ProgramPool& pool) {
          build_compute_streams(m, pool, 128, 500);
        },
        slow ? "slow" : "fast");
    EXPECT_GT(static_cast<double>(o.result.slots.used),
              0.95 * static_cast<double>(o.result.slots.total()));
  }
}

TEST(SlotAccounting, SyncPingPongChargesSyncSlots) {
  for (const bool slow : {false, true}) {
    MtaConfig cfg = platforms::make_mta_config(1);
    cfg.slow_reference = slow;
    const Outcome o = run_accounted(
        cfg,
        [](Machine& m, ProgramPool& pool) {
          // Producer computes a long time before every store, so the
          // consumer spends most of its life blocked on the empty cell.
          VectorProgram* producer = pool.make_vector();
          VectorProgram* consumer = pool.make_vector();
          for (int i = 0; i < 16; ++i) {
            producer->compute(300);
            producer->sync_store(static_cast<mta::Address>(100 + i), 1);
            consumer->sync_load(static_cast<mta::Address>(100 + i));
          }
          m.add_stream(producer);
          m.add_stream(consumer);
        },
        slow ? "slow" : "fast");
    EXPECT_GT(o.result.slots.sync, 0u);
  }
}

TEST(SlotAccounting, SpawnCostChargesSpawnSlots) {
  MtaConfig cfg = platforms::make_mta_config(1);
  const Outcome o = run_accounted(
      cfg,
      [](Machine& m, ProgramPool& pool) {
        build_compute_streams(m, pool, 1, 10);
      },
      "spawn");
  // The initial hardware-spawn delay is the only spawn wait here.
  EXPECT_EQ(o.result.slots.spawn,
            static_cast<std::uint64_t>(cfg.hw_spawn_cycles));
}

// --- region rollups ----------------------------------------------------------

TEST(SlotAccounting, RegionRollupsCoverEveryStream) {
  const int setup = mta::region_id("setup");
  const int work = mta::region_id("work.inner");
  obs::RunRecordStore store;
  obs::Context ctx = obs::current_context();
  ctx.records = &store;
  const obs::ScopedContext scope(ctx);
  Machine machine(platforms::make_mta_config(1));
  ProgramPool pool;
  VectorProgram* a = pool.make_vector();
  a->compute(50);
  a->set_region(setup);
  machine.add_stream(a);
  for (int i = 0; i < 3; ++i) {
    VectorProgram* w = pool.make_vector();
    w->compute(200);
    w->set_region(work);
    machine.add_stream(w);
  }
  const MtaRunResult r = machine.run();

  const auto records = store.records();
  ASSERT_EQ(records.size(), 1u);
  std::uint64_t streams = 0;
  std::uint64_t instructions = 0;
  bool saw_setup = false;
  bool saw_work = false;
  for (const obs::RegionRollup& reg : records.front().regions) {
    streams += reg.streams;
    instructions += reg.instructions;
    if (reg.name == "setup") {
      saw_setup = true;
      EXPECT_EQ(reg.streams, 1u);
    }
    if (reg.name == "work.inner") {
      saw_work = true;
      EXPECT_EQ(reg.streams, 3u);
    }
  }
  EXPECT_TRUE(saw_setup);
  EXPECT_TRUE(saw_work);
  EXPECT_EQ(streams, r.streams_completed);
  EXPECT_EQ(instructions, r.instructions_issued);
}

TEST(SlotAccounting, RegionNamesInternToStableIds) {
  const int a = mta::region_id("interning.check");
  EXPECT_EQ(mta::region_id("interning.check"), a);
  EXPECT_EQ(mta::region_name(a), "interning.check");
  EXPECT_EQ(mta::region_name(0), "main");
  EXPECT_NE(mta::region_id("interning.other"), a);
}

// --- verdicts reproduce the paper narrative ----------------------------------

TEST(SlotAccounting, VerdictFlipsFromParallelismToIssueWithStreams) {
  const auto few = run_accounted(
      platforms::make_mta_config(1),
      [](Machine& m, ProgramPool& pool) {
        build_compute_streams(m, pool, 4, 2000);
      },
      "few streams");
  const auto many = run_accounted(
      platforms::make_mta_config(1),
      [](Machine& m, ProgramPool& pool) {
        build_compute_streams(m, pool, 128, 2000);
      },
      "many streams");
  EXPECT_EQ(obs::classify(few.record), obs::Verdict::kParallelismLimited);
  EXPECT_EQ(obs::classify(many.record), obs::Verdict::kIssueLimited);
}

TEST(SlotAccounting, Table5SaturatesAndTable11SyncsMore) {
  const platforms::Testbed& tb = platforms::load_or_build_testbed();
  // Table 5's chunked threat workload saturates one processor (the paper's
  // 97%-utilization row) while its sequential variant is starved for
  // streams.
  const auto chunked = run_accounted(
      platforms::make_mta_config(1),
      [&](Machine& m, ProgramPool& pool) {
        c3i::threat::build_mta_chunked(pool, m, tb.threat_profile_scaled, 256,
                                       tb.threat_costs_scaled);
      },
      "table5 chunked");
  const auto sequential = run_accounted(
      platforms::make_mta_config(1),
      [&](Machine& m, ProgramPool& pool) {
        c3i::threat::build_mta_sequential(pool, m, tb.threat_profile_scaled,
                                          tb.threat_costs_scaled);
      },
      "table5 sequential");
  EXPECT_EQ(obs::classify(chunked.record), obs::Verdict::kIssueLimited);
  EXPECT_EQ(obs::classify(sequential.record),
            obs::Verdict::kParallelismLimited);

  // Table 11's fine-grained terrain masking leans on full/empty cells, so
  // its sync-blocked share must exceed the threat workload's.
  const auto terrain = run_accounted(
      platforms::make_mta_config(1),
      [&](Machine& m, ProgramPool& pool) {
        c3i::terrain::build_mta_finegrained(pool, m, tb.terrain_profile_scaled,
                                            tb.terrain_costs_scaled,
                                            c3i::terrain::MtaFineParams{});
      },
      "table11 fine");
  const auto sync_share = [](const obs::RunRecord& r) {
    return static_cast<double>(r.slots.sync) /
           static_cast<double>(r.slots.total());
  };
  EXPECT_GT(sync_share(terrain.record), sync_share(chunked.record));
}

}  // namespace
