// Randomized tests of the MTA simulator: ring pipelines of randomly sized
// streams (deadlock-free by construction) must always terminate,
// deterministically, with conserved instruction counts — across random
// configurations — and the fast path must match the slow reference loop
// exactly on every seed.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "mta/machine.hpp"

namespace tc3i::mta {
namespace {

struct FuzzResult {
  std::uint64_t cycles;
  std::uint64_t instructions;
  std::uint64_t memory_ops;
  std::uint64_t spawns;
  std::uint64_t completed;
  std::vector<obs::IssueSlotAccount> processor_slots;
};

/// What a ring program mixes in beyond its sync/compute/load pipeline.
enum class Mode {
  kPlain,
  /// Children spawned by hardware and software under random costs.
  kSpawns,
  /// kSpawns with wakes due thousands of cycles ahead and out of order:
  /// memory latency and software spawn cost in [1000, 5000], free hardware
  /// spawns, unhashed banks.
  kFarWakes,
};

/// Builds a ring pipeline: stream i sync-loads cell i-1, does random local
/// work, then sync-stores cell i. Cell N-1 is pre-filled, so the chain
/// always makes progress; every cell sees exactly one store and one load.
/// With spawns, segments also spawn short compute/load children, mixing
/// hardware and software creation under random (possibly zero) costs;
/// children never synchronize, so the ring stays deadlock-free even when
/// they are virtualized. `slow` selects the reference simulation loop.
FuzzResult run_ring(std::uint64_t seed, bool slow = false,
                    Mode mode = Mode::kPlain) {
  const bool spawns = mode != Mode::kPlain;
  Rng rng(seed);
  MtaConfig cfg;
  cfg.num_processors = 1 + static_cast<int>(rng.next_below(3));
  cfg.clock_hz = 100e6;
  cfg.streams_per_processor = 4 + static_cast<int>(rng.next_below(125));
  cfg.issue_spacing_cycles = 1 + static_cast<int>(rng.next_below(30));
  cfg.memory_latency_cycles = 1 + static_cast<int>(rng.next_below(150));
  cfg.network_ops_per_cycle = rng.uniform(0.05, 4.0);
  cfg.lookahead = static_cast<int>(rng.next_below(4));
  if (rng.chance(0.5)) {
    cfg.memory_banks = 1 << rng.next_below(7);
    cfg.hash_addresses = rng.chance(0.5);
  }
  cfg.memory_words = 1u << 12;
  if (spawns) {
    cfg.hw_spawn_cycles = static_cast<int>(rng.next_below(6));
    cfg.sw_spawn_cycles = static_cast<int>(rng.next_below(101));
  }
  if (mode == Mode::kFarWakes) {
    // A software spawn's wake lands far behind a later free hardware
    // spawn's, and a busy bank's memory wake far behind the next op's on
    // an idle bank: both leave their lane's order for the heap.
    cfg.memory_latency_cycles = 1000 + static_cast<int>(rng.next_below(4001));
    cfg.sw_spawn_cycles = 1000 + static_cast<int>(rng.next_below(4001));
    cfg.hw_spawn_cycles = 0;
    cfg.memory_banks = 2 << rng.next_below(6);
    cfg.hash_addresses = false;
  }
  cfg.slow_reference = slow;
  Machine machine(cfg);

  const int n = 2 + static_cast<int>(rng.next_below(40));
  ProgramPool pool;
  std::uint64_t expected_instr = 0;
  std::uint64_t children = 0;
  for (int i = 0; i < n; ++i) {
    VectorProgram* p = pool.make_vector();
    p->sync_load(static_cast<Address>((i + n - 1) % n));
    ++expected_instr;
    const int segments = 1 + static_cast<int>(rng.next_below(5));
    for (int seg = 0; seg < segments; ++seg) {
      const std::uint64_t alu = 1 + rng.next_below(40);
      const std::uint64_t mem = rng.next_below(8);
      p->compute(alu);
      p->load(100 + rng.next_below(1000), mem);
      expected_instr += alu + mem;
      if (spawns && rng.chance(0.5)) {
        VectorProgram* child = pool.make_vector();
        const std::uint64_t child_alu = 1 + rng.next_below(30);
        const std::uint64_t child_mem = rng.next_below(4);
        child->compute(child_alu);
        child->load(2000 + rng.next_below(1000), child_mem);
        p->spawn(child, rng.chance(0.5));
        expected_instr += 1 + child_alu + child_mem + 1;  // spawn + quit
        ++children;
      }
    }
    p->sync_store(static_cast<Address>(i));
    ++expected_instr;
    machine.add_stream(p);
  }
  expected_instr += static_cast<std::uint64_t>(n);  // one Quit per stream
  machine.memory().store_full(static_cast<Address>(n - 1), 1);

  auto result = machine.run(/*max_cycles=*/1ull << 34);
  EXPECT_EQ(result.instructions_issued, expected_instr) << "seed " << seed;
  EXPECT_EQ(result.streams_completed,
            static_cast<std::uint64_t>(n) + children);
  return FuzzResult{result.cycles,       result.instructions_issued,
                    result.memory_ops,   result.spawns,
                    result.streams_completed,
                    std::move(result.processor_slots)};
}

/// The fast path must reproduce the reference loop on every deterministic
/// result: totals and the per-processor issue-slot account.
void expect_matches_reference(std::uint64_t seed, Mode mode) {
  const FuzzResult f = run_ring(seed, /*slow=*/false, mode);
  const FuzzResult s = run_ring(seed, /*slow=*/true, mode);
  EXPECT_EQ(f.cycles, s.cycles) << "seed " << seed;
  EXPECT_EQ(f.instructions, s.instructions) << "seed " << seed;
  EXPECT_EQ(f.memory_ops, s.memory_ops) << "seed " << seed;
  EXPECT_EQ(f.spawns, s.spawns) << "seed " << seed;
  EXPECT_EQ(f.completed, s.completed) << "seed " << seed;
  EXPECT_EQ(f.processor_slots, s.processor_slots) << "seed " << seed;
}

class MtaFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MtaFuzzTest, RingPipelineTerminatesDeterministically) {
  const FuzzResult a = run_ring(GetParam());
  const FuzzResult b = run_ring(GetParam());
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.memory_ops, b.memory_ops);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_GT(a.cycles, 0u);
}

TEST_P(MtaFuzzTest, RingPipelineMatchesSlowReference) {
  expect_matches_reference(GetParam(), Mode::kPlain);
}

TEST_P(MtaFuzzTest, RingWithSpawnsMatchesSlowReference) {
  expect_matches_reference(GetParam(), Mode::kSpawns);
}

TEST_P(MtaFuzzTest, RingWithFarWakesMatchesSlowReference) {
  expect_matches_reference(GetParam(), Mode::kFarWakes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtaFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(MtaFuzz, ManyMoreSeedsMatchSlowReference) {
  for (std::uint64_t seed = 41; seed < 1041; ++seed) {
    expect_matches_reference(seed, Mode::kPlain);
    expect_matches_reference(seed, Mode::kSpawns);
    if (::testing::Test::HasFailure()) break;
  }
}

TEST(MtaFuzz, RingEndsWithEveryCellConsumedButLast) {
  // Deterministic small instance to pin the final memory state: each cell
  // is stored once and loaded once; the chain ends with exactly one FULL
  // cell (the last store whose consumer already ran before it — i.e. the
  // pre-filled seed's slot refilled by stream n-1).
  MtaConfig cfg;
  cfg.memory_words = 64;
  Machine machine(cfg);
  ProgramPool pool;
  constexpr int n = 5;
  for (int i = 0; i < n; ++i) {
    VectorProgram* p = pool.make_vector();
    p->sync_load(static_cast<Address>((i + n - 1) % n));
    p->compute(10);
    p->sync_store(static_cast<Address>(i));
    machine.add_stream(p);
  }
  machine.memory().store_full(n - 1, 7);
  machine.run();
  int full = 0;
  for (Address a = 0; a < n; ++a)
    if (machine.memory().is_full(a)) ++full;
  EXPECT_EQ(full, 1);
  EXPECT_TRUE(machine.memory().is_full(n - 1));
}

}  // namespace
}  // namespace tc3i::mta
