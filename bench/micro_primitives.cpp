// google-benchmark microbenchmarks for the substrate primitives: the fluid
// solver, the MTA stream simulator's cycle throughput, the host threading
// primitives, and the real benchmark kernels.
#include <benchmark/benchmark.h>

#include <sstream>

#include "c3i/io.hpp"
#include "c3i/terrain/masking_kernel.hpp"
#include "c3i/terrain/scenario_gen.hpp"
#include "c3i/threat/physics.hpp"
#include "c3i/threat/scenario_gen.hpp"
#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "platforms/platform.hpp"
#include "sim/fluid.hpp"
#include "sthreads/barrier.hpp"
#include "sthreads/parallel_for.hpp"
#include "sthreads/sync_var.hpp"
#include "sthreads/thread.hpp"

using namespace tc3i;

namespace {

void BM_WaterFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> caps(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) caps[i] = 0.5 + 0.01 * (i % 100);
  for (auto _ : state) {
    auto rates = sim::water_fill(static_cast<double>(n) / 3.0, caps);
    benchmark::DoNotOptimize(rates.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_WaterFill)->Arg(16)->Arg(256);

void BM_MtaSimulatorCycles(benchmark::State& state) {
  const int streams = static_cast<int>(state.range(0));
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    mta::Machine machine(platforms::make_mta_config(1));
    mta::ProgramPool pool;
    for (int s = 0; s < streams; ++s) {
      mta::VectorProgram* p = pool.make_vector();
      for (int r = 0; r < 200; ++r) {
        p->compute(40);
        p->load(1, 11);
      }
      machine.add_stream(p);
    }
    const auto result = machine.run();
    cycles += result.cycles;
    instructions += result.instructions_issued;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instructions));
  state.counters["sim_cycles_per_run"] =
      static_cast<double>(cycles) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_MtaSimulatorCycles)->Arg(1)->Arg(32)->Arg(128);

void BM_SyncVarPingPong(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sthreads::SyncVar<int> ping;
    sthreads::SyncVar<int> pong;
    constexpr int kRounds = 1000;
    state.ResumeTiming();
    sthreads::Thread echo([&] {
      for (int i = 0; i < kRounds; ++i) pong.put(ping.take() + 1);
    });
    int v = 0;
    for (int i = 0; i < kRounds; ++i) {
      ping.put(v);
      v = pong.take();
    }
    echo.join();
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SyncVarPingPong);

void BM_SyncCounterFetchAdd(benchmark::State& state) {
  sthreads::SyncCounter counter;
  for (auto _ : state) benchmark::DoNotOptimize(counter.fetch_add(1));
}
BENCHMARK(BM_SyncCounterFetchAdd);

void BM_BarrierCycle(benchmark::State& state) {
  const int parties = 4;
  for (auto _ : state) {
    sthreads::Barrier barrier(parties);
    sthreads::fork_join(parties, [&](int) {
      for (int i = 0; i < 100; ++i) barrier.arrive_and_wait();
    });
  }
}
BENCHMARK(BM_BarrierCycle);

void BM_ThreatPairScan(benchmark::State& state) {
  c3i::threat::ScenarioParams params;
  params.num_threats = 4;
  params.num_weapons = 4;
  const auto scenario = c3i::threat::generate_scenario(42, params);
  std::uint64_t steps = 0;
  for (auto _ : state) {
    for (std::size_t t = 0; t < scenario.threats.size(); ++t)
      for (std::size_t w = 0; w < scenario.weapons.size(); ++w) {
        auto scan = c3i::threat::scan_pair(
            scenario.threats[t], static_cast<std::int32_t>(t),
            scenario.weapons[w], static_cast<std::int32_t>(w), scenario.dt);
        steps += scan.steps;
        benchmark::DoNotOptimize(scan.intervals.data());
      }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_ThreatPairScan);

void BM_TerrainMaskingKernel(benchmark::State& state) {
  c3i::terrain::ScenarioParams params;
  params.x_size = 256;
  params.y_size = 256;
  params.num_threats = 1;
  const auto scenario = c3i::terrain::generate_scenario(42, params);
  c3i::terrain::Grid out(256, 256, 0.0);
  c3i::terrain::KernelScratch scratch;
  std::uint64_t cells = 0;
  for (auto _ : state)
    cells += c3i::terrain::compute_threat_masking(
        scenario.terrain, scenario.threats[0], out, scratch);
  state.SetItemsProcessed(static_cast<std::int64_t>(cells));
}
BENCHMARK(BM_TerrainMaskingKernel);

void BM_MtaSumReduction(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    mta::Machine machine(platforms::make_mta_config(1));
    mta::ProgramPool pool;
    std::vector<mta::Word> values(n, 1);
    const mta::Address root =
        mta::emit_sum_reduction(pool, machine, values, 100, 4);
    machine.run();
    benchmark::DoNotOptimize(machine.memory().load(root));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_MtaSumReduction)->Arg(64)->Arg(512);

void BM_SyncMemoryOps(benchmark::State& state) {
  mta::SyncMemory mem(1024);
  mta::Word v = 0;
  for (auto _ : state) {
    mem.store_full(7, v++);
    benchmark::DoNotOptimize(mem.try_sync_load(7, 0));
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_SyncMemoryOps);

void BM_ScenarioSerialization(benchmark::State& state) {
  c3i::threat::ScenarioParams params;
  params.num_threats = 100;
  params.num_weapons = 10;
  const auto scenario = c3i::threat::generate_scenario(5, params);
  for (auto _ : state) {
    std::stringstream buffer;
    c3i::io::write_scenario(buffer, scenario);
    c3i::threat::Scenario loaded;
    std::string error;
    const bool ok = c3i::io::read_scenario(buffer, loaded, error);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_ScenarioSerialization);

void BM_ParallelReduceHost(benchmark::State& state) {
  for (auto _ : state) {
    const long sum = sthreads::parallel_reduce<long>(
        1 << 16, 4, 0L, [](std::size_t i) { return static_cast<long>(i & 0xff); },
        [](long a, long b) { return a + b; });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed((1 << 16) * state.iterations());
}
BENCHMARK(BM_ParallelReduceHost);

}  // namespace

BENCHMARK_MAIN();
