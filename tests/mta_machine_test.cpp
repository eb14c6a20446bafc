// Timing and structural validation of the MTA stream simulator.
#include "mta/machine.hpp"

#include <gtest/gtest.h>

#include "mta/runtime.hpp"

namespace tc3i::mta {
namespace {

MtaConfig test_config(int procs = 1) {
  MtaConfig cfg;
  cfg.num_processors = procs;
  cfg.clock_hz = 100e6;
  cfg.streams_per_processor = 128;
  cfg.issue_spacing_cycles = 21;
  cfg.memory_latency_cycles = 70;
  cfg.network_ops_per_cycle = 10.0;  // unconstrained unless a test says so
  cfg.hw_spawn_cycles = 2;
  cfg.sw_spawn_cycles = 60;
  cfg.memory_words = 1024;
  return cfg;
}

TEST(MtaMachine, SingleStreamIssuesEvery21Cycles) {
  Machine m(test_config());
  ProgramPool pool;
  VectorProgram* p = pool.make_vector();
  p->compute(100);
  m.add_stream(p);
  const auto r = m.run();
  // 100 computes + quit, each separated by 21 cycles (plus spawn ~2).
  EXPECT_GE(r.cycles, 100u * 21u);
  EXPECT_LE(r.cycles, 102u * 21u + 10u);
  EXPECT_EQ(r.instructions_issued, 101u);  // 100 computes + quit
  EXPECT_NEAR(r.processor_utilization, 1.0 / 21.0, 0.005);
}

TEST(MtaMachine, TwentyOneStreamsSaturateTheProcessor) {
  Machine m(test_config());
  ProgramPool pool;
  for (int s = 0; s < 21; ++s) {
    VectorProgram* p = pool.make_vector();
    p->compute(500);
    m.add_stream(p);
  }
  const auto r = m.run();
  EXPECT_GT(r.processor_utilization, 0.97);
  // Saturated: total cycles ~ total instructions.
  EXPECT_NEAR(static_cast<double>(r.cycles),
              static_cast<double>(r.instructions_issued), 600.0);
}

TEST(MtaMachine, MemoryLatencyStallsASingleStream) {
  Machine m(test_config());
  ProgramPool pool;
  VectorProgram* p = pool.make_vector();
  p->load(1, 100);
  m.add_stream(p);
  const auto r = m.run();
  // Each load occupies the stream for >= latency cycles.
  EXPECT_GE(r.cycles, 100u * 70u);
  EXPECT_EQ(r.memory_ops, 100u);
}

TEST(MtaMachine, ManyStreamsMaskMemoryLatency) {
  // 100 streams of pure memory ops: latency overlaps; throughput is
  // bounded by the network service rate instead.
  MtaConfig cfg = test_config();
  cfg.network_ops_per_cycle = 1.0;
  Machine m(cfg);
  ProgramPool pool;
  for (int s = 0; s < 100; ++s) {
    VectorProgram* p = pool.make_vector();
    p->load(1, 100);
    m.add_stream(p);
  }
  const auto r = m.run();
  // 10'000 memory ops at ~1/cycle ~= 10'000 cycles, far below the
  // unmasked 100 * 100 * 70.
  EXPECT_LT(r.cycles, 16'000u);
  EXPECT_GT(r.cycles, 10'000u);
}

TEST(MtaMachine, NetworkQueueingSerializesMemoryOps) {
  MtaConfig cfg = test_config();
  cfg.network_ops_per_cycle = 0.1;  // very slow network
  Machine m(cfg);
  ProgramPool pool;
  for (int s = 0; s < 8; ++s) {
    VectorProgram* p = pool.make_vector();
    p->load(1, 50);
    m.add_stream(p);
  }
  const auto r = m.run();
  // 400 ops at 0.1/cycle >= 4000 cycles of pure service time.
  EXPECT_GE(r.cycles, 4000u);
}

TEST(MtaMachine, HardwareSpawnIsCheapSoftwareSpawnIsNot) {
  auto spawn_cost = [&](bool software) {
    Machine m(test_config());
    ProgramPool pool;
    VectorProgram* parent = pool.make_vector();
    VectorProgram* child = pool.make_vector();
    child->compute(1);
    parent->spawn(child, software);
    m.add_stream(parent);
    return m.run().cycles;
  };
  const auto hw = spawn_cost(false);
  const auto sw = spawn_cost(true);
  EXPECT_GT(sw, hw);
  EXPECT_GE(sw - hw, 50u);  // 60-cycle software create vs 2-cycle hardware
}

TEST(MtaMachine, SyncVarProducerConsumer) {
  Machine m(test_config());
  ProgramPool pool;
  VectorProgram* consumer = pool.make_vector();
  consumer->sync_load(5);  // blocks until the producer stores
  VectorProgram* producer = pool.make_vector();
  producer->compute(200);  // long prelude
  producer->sync_store(5, 77);
  m.add_stream(consumer);
  m.add_stream(producer);
  const auto r = m.run();
  // The consumer must wait for the producer's 200-compute prelude.
  EXPECT_GE(r.cycles, 200u * 21u);
  EXPECT_EQ(m.memory().load(5), 77);
  EXPECT_FALSE(m.memory().is_full(5));  // consumed
}

TEST(MtaMachine, DeliverPassesLoadedValueToProgram) {
  Machine m(test_config());
  ProgramPool pool;
  m.memory().store_full(3, 123);
  Word delivered = -1;
  int phase = 0;
  CallbackProgram* p = pool.make_callback(
      [&phase](Instr& out) {
        if (phase++ > 0) return false;
        out = Instr{};
        out.op = Instr::Op::SyncLoad;
        out.addr = 3;
        return true;
      },
      [&delivered](Word v) { delivered = v; });
  m.add_stream(p);
  m.run();
  EXPECT_EQ(delivered, 123);
}

TEST(MtaMachine, FetchAddSerializesOnTheCounterCell) {
  Machine m(test_config());
  ProgramPool pool;
  init_counter_cells(m, 0, 1);
  for (int s = 0; s < 16; ++s) {
    VectorProgram* p = pool.make_vector();
    append_atomic_fetch_add(*p, 0);
    m.add_stream(p);
  }
  const auto r = m.run();
  // All 16 round-trips complete; the cell ends FULL.
  EXPECT_TRUE(m.memory().is_full(0));
  EXPECT_EQ(r.streams_completed, 16u);
}

TEST(MtaMachine, StreamsBeyondHardwareSlotsAreVirtualized) {
  MtaConfig cfg = test_config();
  cfg.streams_per_processor = 4;
  Machine m(cfg);
  ProgramPool pool;
  for (int s = 0; s < 16; ++s) {
    VectorProgram* p = pool.make_vector();
    p->compute(10);
    m.add_stream(p);
  }
  const auto r = m.run();
  EXPECT_EQ(r.streams_completed, 16u);
  EXPECT_LE(r.peak_live_streams, 4u);
}

TEST(MtaMachine, TwoProcessorsDoubleComputeThroughput) {
  auto elapsed = [&](int procs) {
    Machine m(test_config(procs));
    ProgramPool pool;
    for (int s = 0; s < 128 * procs; ++s) {
      VectorProgram* p = pool.make_vector();
      p->compute(200);
      m.add_stream(p);
    }
    return m.run().cycles;
  };
  const auto one = elapsed(1);
  const auto two = elapsed(2);
  // Same per-processor load => same time; i.e., 2x throughput.
  EXPECT_NEAR(static_cast<double>(one), static_cast<double>(two),
              static_cast<double>(one) * 0.02);
}

TEST(MtaMachine, SharedNetworkLimitsTwoProcessorMemoryThroughput) {
  MtaConfig cfg = test_config();
  cfg.network_ops_per_cycle = 0.5;
  auto elapsed = [&](int procs) {
    MtaConfig c = cfg;
    c.num_processors = procs;
    Machine m(c);
    ProgramPool pool;
    for (int s = 0; s < 128 * procs; ++s) {
      VectorProgram* p = pool.make_vector();
      for (int r = 0; r < 50; ++r) {
        p->compute(2);
        p->load(1);
      }
      m.add_stream(p);
    }
    return static_cast<double>(m.run().cycles);
  };
  const double one = elapsed(1);
  const double two = elapsed(2);
  // Twice the work through the same network: mem fraction 1/3 with
  // R = 0.5 gives a per-processor issue bound of 1.5 instr/cycle total,
  // so two processors cannot halve the time.
  const double scaling = 2.0 * one / two;  // throughput ratio
  EXPECT_LT(scaling, 1.8);
  EXPECT_GT(scaling, 1.2);
}

TEST(MtaMachine, DeterministicAcrossIdenticalRuns) {
  auto run_once = [&] {
    Machine m(test_config(2));
    ProgramPool pool;
    init_counter_cells(m, 0, 1);
    for (int s = 0; s < 40; ++s) {
      VectorProgram* p = pool.make_vector();
      p->compute(static_cast<std::uint64_t>(10 + s % 7));
      p->load(1, 3);
      append_atomic_fetch_add(*p, 0);
      m.add_stream(p);
    }
    return m.run().cycles;
  };
  EXPECT_EQ(run_once(), run_once());
}

// The delivery floor: a wake becomes eligible at its due cycle, except that
// a wake pushed while cycle t is scanned cannot issue before t + 1. Each
// case runs on both simulation paths.

TEST(MtaMachine, ZeroCostInitialStreamsIssueAtCycleZero) {
  for (const bool slow : {false, true}) {
    MtaConfig cfg = test_config();
    cfg.hw_spawn_cycles = 0;
    cfg.timeline_bucket_cycles = 1;  // one utilization sample per cycle
    cfg.slow_reference = slow;
    Machine m(cfg);
    ProgramPool pool;
    VectorProgram* p = pool.make_vector();
    p->compute(1);
    m.add_stream(p);
    const auto r = m.run();
    // Compute at cycle 0, Quit one spacing window later.
    ASSERT_FALSE(r.utilization_timeline.empty()) << "slow " << slow;
    EXPECT_EQ(r.utilization_timeline[0], 1.0) << "slow " << slow;
    EXPECT_EQ(r.cycles, 21u + 1u) << "slow " << slow;
    EXPECT_EQ(r.slots.spawn, 0u) << "slow " << slow;
  }
}

TEST(MtaMachine, ZeroCostSpawnIssuesOnTheNextCycle) {
  for (const bool slow : {false, true}) {
    MtaConfig cfg = test_config(2);
    cfg.hw_spawn_cycles = 0;
    // Per-cycle samples keep the generic loop (no solo fast-forward), whose
    // scan is what must not issue the child in the cycle that spawns it.
    cfg.timeline_bucket_cycles = 1;
    cfg.slow_reference = slow;
    Machine m(cfg);
    ProgramPool pool;
    // The parent (processor 0) spawns at cycle 0; the child lands on the
    // idle processor 1, which the same cycle's scan reaches after the
    // spawn, yet it may issue only at cycle 1.
    VectorProgram* child = pool.make_vector();
    child->compute(1);
    VectorProgram* parent = pool.make_vector();
    parent->spawn(child);
    m.add_stream(parent);
    const auto r = m.run();
    // Child: compute at 1, Quit at 22; the parent quits at 21.
    EXPECT_EQ(r.cycles, 21u + 2u) << "slow " << slow;
    ASSERT_EQ(r.processor_slots.size(), 2u);
    // Processor 1's cycle-0 slot waits on the spawn.
    EXPECT_EQ(r.processor_slots[1].spawn, 1u) << "slow " << slow;
  }
}

TEST(MtaMachine, ZeroCostSpawnIsOrderedByDueCycleBeforeStreamId) {
  for (const bool slow : {false, true}) {
    MtaConfig cfg = test_config();
    cfg.hw_spawn_cycles = 0;
    cfg.issue_spacing_cycles = 2;
    cfg.slow_reference = slow;
    Machine m(cfg);
    ProgramPool pool;
    constexpr Address kCell = 5;
    // Stream 0 issues at 0 and spawns stream 2 at 2 (due 2, eligible 3).
    // Stream 1 issues at 1, so its wake is due 3. At cycle 3 the child's
    // earlier due cycle beats stream 1's smaller id: the child stores at
    // 3, stream 1 at 4, and stream 1's value is the one left in memory.
    VectorProgram* child = pool.make_vector();
    child->store(kCell, 2);
    VectorProgram* parent = pool.make_vector();
    parent->compute(1);
    parent->spawn(child);
    VectorProgram* other = pool.make_vector();
    other->compute(1);
    other->store(kCell, 1);
    m.add_stream(parent);
    m.add_stream(other);
    (void)m.run();
    EXPECT_EQ(m.memory().load(kCell), 1) << "slow " << slow;
  }
}

TEST(MtaMachineDeathTest, DeadlockIsDetected) {
  Machine m(test_config());
  ProgramPool pool;
  VectorProgram* p = pool.make_vector();
  p->sync_load(9);  // nobody ever fills word 9
  m.add_stream(p);
  EXPECT_DEATH(m.run(), "Invariant");
}

TEST(MtaMachineDeathTest, InvalidConfigAborts) {
  MtaConfig cfg = test_config();
  cfg.issue_spacing_cycles = 0;
  EXPECT_DEATH(Machine{cfg}, "MtaConfig");
}

}  // namespace
}  // namespace tc3i::mta
