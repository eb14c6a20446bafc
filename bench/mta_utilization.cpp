// Reproduces the paper's §2/§7 architectural claims directly on the MTA
// simulator with synthetic kernels:
//   - a single stream issues one instruction every 21 cycles (~5%
//     utilization),
//   - "80 concurrent threads are typically required to obtain full
//     utilization of a single Tera MTA processor" (with a realistic
//     memory-op mix),
//   - thread creation costs ~2 cycles (hardware) / 50-100 cycles
//     (software futures), synchronization ~1 issue.
#include <functional>
#include <iostream>
#include <vector>

#include "core/table.hpp"
#include "harness.hpp"
#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "platforms/platform.hpp"

using namespace tc3i;

namespace {

/// Utilization of one processor running `streams` identical kernels with
/// the given ALU/memory mix.
double utilization(int streams, std::uint64_t alu, std::uint64_t mem,
                   std::uint64_t reps) {
  mta::Machine machine(platforms::make_mta_config(1));
  mta::ProgramPool pool;
  for (int s = 0; s < streams; ++s) {
    mta::VectorProgram* p = pool.make_vector();
    for (std::uint64_t r = 0; r < reps; ++r) {
      p->compute(alu);
      p->load(1, mem);
    }
    machine.add_stream(p);
  }
  return machine.run().processor_utilization;
}

/// Thread-creation and synchronization cost microcheck: spawn a single
/// child and join through a sync cell; returns the run's cycles.
double future_round_trip_cycles() {
  mta::Machine machine(platforms::make_mta_config(1));
  mta::ProgramPool pool;
  mta::VectorProgram* parent = pool.make_vector();
  mta::emit_future(pool, *parent, /*result_cell=*/8,
                   [](mta::VectorProgram& child) { child.compute(1); });
  mta::await_future(*parent, 8);
  machine.add_stream(parent);
  return static_cast<double>(machine.run().cycles);
}

}  // namespace

int main(int argc, char** argv) {
  tc3i::bench::Session session("mta_utilization", argc, argv);
  const std::vector<int> counts = {1,  2,  4,  8,  16,  21,  32,
                                   48, 64, 80, 96, 128, 192, 256};
  // Every run is a sweep point, submitted in the order the report lists
  // them: both kernels per stream count, the single-stream and 80-stream
  // claims, then the future round trip.
  std::vector<std::function<double()>> points;
  for (const int n : counts) {
    points.emplace_back([n] { return utilization(n, 64, 0, 400); });
    points.emplace_back([n] { return utilization(n, 52, 13, 400); });
  }
  points.emplace_back([] { return utilization(1, 64, 0, 400); });
  points.emplace_back([] { return utilization(80, 52, 13, 400); });
  points.emplace_back(future_round_trip_cycles);
  const std::vector<double> swept = sim::run_sweep(points, session.jobs());

  TextTable table(
      "Single-processor utilization vs concurrent streams (Tera MTA model)");
  table.header({"Streams", "ALU-only kernel", "20% memory kernel"});
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double pure = swept[2 * i];
    const double mixed = swept[2 * i + 1];
    table.row({std::to_string(counts[i]), TextTable::num(100.0 * pure, 1) + "%",
               TextTable::num(100.0 * mixed, 1) + "%"});
  }
  table.render(std::cout);

  const std::size_t claims = 2 * counts.size();
  std::cout << "\nPaper claims vs model:\n"
            << "  single stream utilization ~5% (1 instr / 21 cycles): "
            << TextTable::num(100.0 * swept[claims], 1) << "%\n"
            << "  full utilization around ~80 streams with memory traffic: "
            << TextTable::num(100.0 * swept[claims + 1], 1)
            << "% at 80 streams\n";
  std::cout << "  future create+join round trip: "
            << static_cast<std::uint64_t>(swept[claims + 2])
            << " cycles (software spawn ~60 + sync + memory latency)\n";
  return 0;
}
