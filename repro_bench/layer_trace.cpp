// layer_trace: the traced, in-process replay of one repro_bench bench binary.
//
//   layer_trace --binary <name> --jobs <n> [--obs-dir <dir>] [--seed <n>]
//               [--setup 0|1]
//
// It replays the simulation work of the named bench binary by calling the
// layers' public functions directly, and times each call with
// std::chrono::steady_clock spans kept in memory:
//
//   c3i        testbed_scenarios(), profile_testbed_kernels(), and each MTA
//              point's build closure (kernel trace -> stream programs);
//   platforms  assemble_testbed() and the warm load_or_build_testbed()
//              every bench process pays;
//   mta        mta::Machine::run();
//   smp        the platforms SMP experiment functions;
//   sweep      sim::run_sweep() and the function passed to it;
//   obs        obs::RunSession::finish(), which writes the report,
//              timeline, trace and sweep-report files (only with
//              --obs-dir, where each binary's session writes them all).
//
// run.py starts one layer_trace process per binary of a workload, as each
// bench binary is a process of its own, and sums what they print. So no
// process-lifetime state carries from one binary's replay into the next:
// sim/fluid.cpp and sim/event_queue.cpp cache counter references in
// function-local statics bound to whichever registry is current on first
// use, and when that is a sweep point's scoped registry, a later replay in
// the same process writes freed memory. Only the first process of a
// workload runs the set-up stages (--setup 1), as setup_s times them once.
//
// The last line of stdout is one JSON object of per-layer metrics. Layer
// times are summed over host threads. Without --seed the replay uses the
// paper's c3i::standard_scenarios inputs, so mta.instr equals the
// mta.issue.total the bench binaries report for the same work; with --seed
// it builds a held-out testbed from scenarios generated with other seeds.
//
// Deliberately not replayed (timed only end to end by run.py): autopar
// analysis, host_parallel's sthreads kernels, and the hand-written SMP
// models of smp_timeline and ablate_finegrain_smp. None runs an MTA
// machine, so mta.instr still covers all of a workload's MTA work.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "c3i/scenario.hpp"
#include "c3i/terrain/coarse.hpp"
#include "c3i/terrain/finegrained.hpp"
#include "c3i/terrain/scenario_gen.hpp"
#include "c3i/terrain/trace_builder.hpp"
#include "c3i/threat/scenario_gen.hpp"
#include "c3i/threat/trace_builder.hpp"
#include "core/cli.hpp"
#include "mta/machine.hpp"
#include "mta/runtime.hpp"
#include "obs/run_record.hpp"
#include "obs/session.hpp"
#include "platforms/experiment.hpp"
#include "platforms/paper.hpp"
#include "platforms/platform.hpp"
#include "platforms/testbed_cache.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace tc3i;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs fn and adds its duration to `acc`; returns fn's result.
template <typename Fn>
auto timed(double& acc, Fn&& fn) {
  const auto start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    acc += since(start);
  } else {
    auto result = fn();
    acc += since(start);
    return result;
  }
}

/// One simulation point: an MTA machine (config + build closure) or an
/// SMP experiment call.
struct Unit {
  std::string scenario;
  mta::MtaConfig config;
  std::function<void(mta::Machine&, mta::ProgramPool&)> build;
  std::function<double()> smp;
};

/// One sim::run_sweep call of a bench binary. `serial` marks work the
/// binary runs outside any sweep (always on one thread).
struct Sweep {
  bool serial = false;
  std::vector<Unit> units;
};

Unit mta_unit(platforms::MtaPoint p) {
  return Unit{p.batch.scenario, std::move(p.batch.config),
              std::move(p.batch.build), {}};
}

Unit custom_unit(mta::MtaConfig cfg,
                 std::function<void(mta::Machine&, mta::ProgramPool&)> build) {
  return Unit{"", std::move(cfg), std::move(build), {}};
}

Unit smp_unit(std::function<double()> fn) {
  return Unit{"", {}, {}, std::move(fn)};
}

Unit chunked_unit(const platforms::Testbed& tb, mta::MtaConfig cfg,
                  int chunks) {
  return custom_unit(std::move(cfg), [&tb, chunks](mta::Machine& m,
                                                   mta::ProgramPool& pool) {
    c3i::threat::build_mta_chunked(pool, m, tb.threat_profile_scaled,
                                   static_cast<std::size_t>(chunks),
                                   tb.threat_costs_scaled);
  });
}

// --- per-binary replays -----------------------------------------------------
// Each mirrors the simulation calls of bench/<binary>.cpp, point for point.

/// The binaries that never call bench::testbed(): their points build
/// synthetic kernels, so their replay needs no testbed either.
std::vector<Sweep> replay_standalone(const std::string& bin) {
  namespace pl = platforms;
  if (bin == "ablate_mta_banks") {
    Sweep s;
    for (const int stride : {1, 7, 64, 128, 4096})
      for (int variant = 0; variant < 3; ++variant) {
        mta::MtaConfig cfg = pl::make_mta_config(1);
        cfg.network_ops_per_cycle = 8.0;
        if (variant > 0) {
          cfg.memory_banks = 64;
          cfg.bank_busy_cycles = 8;
          cfg.hash_addresses = variant == 1;
        }
        s.units.push_back(custom_unit(
            cfg, [stride](mta::Machine& m, mta::ProgramPool& pool) {
              for (int st = 0; st < 64; ++st) {
                mta::VectorProgram* p = pool.make_vector();
                for (int i = 0; i < 200; ++i) {
                  p->compute(2);
                  p->load(static_cast<mta::Address>(
                      (static_cast<std::uint64_t>(i) * 4096 +
                       static_cast<std::uint64_t>(st) *
                           static_cast<std::uint64_t>(stride)) %
                      (1u << 20)));
                }
                m.add_stream(p);
              }
            }));
      }
    return {s};
  }
  if (bin == "ablate_mta_lookahead") {
    auto kernel = [](int streams, int lookahead) {
      mta::MtaConfig cfg = pl::make_mta_config(1);
      cfg.lookahead = lookahead;
      cfg.network_ops_per_cycle = 4.0;
      return custom_unit(cfg, [streams](mta::Machine& m,
                                        mta::ProgramPool& pool) {
        for (int s = 0; s < streams; ++s) {
          mta::VectorProgram* p = pool.make_vector();
          for (int r = 0; r < 300; ++r) {
            p->compute(3);
            p->load(1);
          }
          m.add_stream(p);
        }
      });
    };
    std::vector<Sweep> sweeps(2);
    for (const int la : {0, 1, 2, 4, 8}) sweeps[0].units.push_back(kernel(1, la));
    for (const int streams : {8, 16, 24, 32, 48, 64, 96})
      for (const int la : {0, 2, 8})
        sweeps[1].units.push_back(kernel(streams, la));
    return sweeps;
  }
  if (bin == "ablate_mta_spawn_tree") {
    Sweep s;
    for (const int workers : {16, 64, 128, 256, 512})
      for (int mode = 0; mode < 3; ++mode)
        s.units.push_back(custom_unit(
            pl::make_mta_config(2),
            [workers, mode](mta::Machine& m, mta::ProgramPool& pool) {
              mta::VectorProgram* master = pool.make_vector();
              const mta::Address done_base = 64;
              std::vector<mta::VectorProgram*> bodies;
              std::vector<mta::StreamProgram*> body_ptrs;
              for (int w = 0; w < workers; ++w) {
                mta::VectorProgram* worker = pool.make_vector();
                worker->compute(1);
                bodies.push_back(worker);
                body_ptrs.push_back(worker);
              }
              if (mode == 0) {
                for (std::size_t w = 0; w < bodies.size(); ++w) {
                  mta::signal_done(*bodies[w], done_base, w);
                  master->spawn(bodies[w], /*software=*/false);
                }
                mta::await_all(*master, done_base, bodies.size());
              } else if (mode == 1) {
                for (std::size_t w = 0; w < bodies.size(); ++w)
                  mta::signal_done(*bodies[w], done_base, w);
                mta::emit_spawn_tree(pool, *master, body_ptrs, 4);
                mta::await_all(*master, done_base, bodies.size());
              } else {
                mta::emit_tree_fork_join(pool, *master, bodies, done_base, 4);
              }
              m.add_stream(master);
            }));
    return {s};
  }
  if (bin == "mta_utilization") {
    auto util = [](int streams, std::uint64_t alu, std::uint64_t mem) {
      return custom_unit(pl::make_mta_config(1), [=](mta::Machine& m,
                                                     mta::ProgramPool& pool) {
        for (int s = 0; s < streams; ++s) {
          mta::VectorProgram* p = pool.make_vector();
          for (int r = 0; r < 400; ++r) {
            p->compute(alu);
            p->load(1, mem);
          }
          m.add_stream(p);
        }
      });
    };
    Sweep s{true, {}};
    for (const int n : {1, 2, 4, 8, 16, 21, 32, 48, 64, 80, 96, 128, 192, 256}) {
      s.units.push_back(util(n, 64, 0));
      s.units.push_back(util(n, 52, 13));
    }
    s.units.push_back(util(1, 64, 0));
    s.units.push_back(util(80, 52, 13));
    s.units.push_back(custom_unit(
        pl::make_mta_config(1), [](mta::Machine& m, mta::ProgramPool& pool) {
          mta::VectorProgram* parent = pool.make_vector();
          mta::emit_future(pool, *parent, /*result_cell=*/8,
                           [](mta::VectorProgram& child) { child.compute(1); });
          mta::await_future(*parent, 8);
          m.add_stream(parent);
        }));
    return {s};
  }
  // autopar_verdicts, host_parallel: not replayed (see top).
  return {};
}

std::vector<Sweep> replay_binary(const std::string& bin,
                                const platforms::Testbed& tb) {
  namespace pl = platforms;
  namespace paper = platforms::paper;
  const auto* T = &tb;
  // The SMP configs live in the testbed; closures hold pointers to them.
  auto threat_seq = [T](const smp::SmpConfig& c) {
    return smp_unit([T, C = &c] { return pl::threat_seq_seconds(*T, *C); });
  };
  auto threat_chunked = [T](const smp::SmpConfig& c, int chunks, int procs) {
    return smp_unit([T, C = &c, chunks, procs] {
      return pl::threat_chunked_seconds(*T, *C, chunks, procs);
    });
  };
  auto terrain_seq = [T](const smp::SmpConfig& c) {
    return smp_unit([T, C = &c] { return pl::terrain_seq_seconds(*T, *C); });
  };
  auto terrain_coarse = [T](const smp::SmpConfig& c, int workers, int procs,
                            int blocks = 10) {
    return smp_unit([T, C = &c, workers, procs, blocks] {
      return pl::terrain_coarse_seconds(*T, *C, workers, procs, blocks);
    });
  };

  if (bin == "table01_platforms") return {};
  if (bin == "table02_threat_seq")
    return {{false,
             {threat_seq(tb.alpha), threat_seq(tb.ppro),
              threat_seq(tb.exemplar), mta_unit(pl::mta_threat_seq_point(tb))}}};
  if (bin == "table03_fig1_threat_ppro" ||
      bin == "table04_fig2_threat_exemplar") {
    const bool ppro = bin == "table03_fig1_threat_ppro";
    const smp::SmpConfig& cfg = ppro ? tb.ppro : tb.exemplar;
    Sweep s{false, {threat_seq(cfg)}};
    for (const auto& row :
         ppro ? paper::threat_ppro_rows() : paper::threat_exemplar_rows())
      s.units.push_back(threat_chunked(cfg, row.processors, row.processors));
    return {s};
  }
  if (bin == "table05_threat_tera")
    return {{false,
             {mta_unit(pl::mta_threat_chunked_point(tb, 256, 1)),
              mta_unit(pl::mta_threat_chunked_point(tb, 256, 2)),
              mta_unit(pl::mta_threat_seq_point(tb))}}};
  if (bin == "table06_threat_tera_chunks") {
    Sweep s;
    for (const auto& row : paper::threat_tera_chunk_rows())
      s.units.push_back(mta_unit(pl::mta_threat_chunked_point(tb, row.chunks, 2)));
    return {s};
  }
  if (bin == "table07_threat_summary")
    return {{true,
             {threat_seq(tb.alpha), threat_seq(tb.ppro),
              threat_seq(tb.exemplar), mta_unit(pl::mta_threat_seq_point(tb)),
              threat_chunked(tb.ppro, 4, 4), threat_chunked(tb.exemplar, 4, 4),
              threat_chunked(tb.exemplar, 8, 8),
              threat_chunked(tb.exemplar, 16, 16),
              mta_unit(pl::mta_threat_chunked_point(tb, 256, 1)),
              mta_unit(pl::mta_threat_chunked_point(tb, 256, 2))}}};
  if (bin == "table08_terrain_seq")
    return {{false,
             {terrain_seq(tb.alpha), terrain_seq(tb.ppro),
              terrain_seq(tb.exemplar),
              mta_unit(pl::mta_terrain_seq_point(tb))}}};
  if (bin == "table09_fig3_terrain_ppro" ||
      bin == "table10_fig4_terrain_exemplar") {
    const bool ppro = bin == "table09_fig3_terrain_ppro";
    const smp::SmpConfig& cfg = ppro ? tb.ppro : tb.exemplar;
    Sweep s{false, {terrain_seq(cfg)}};
    for (const auto& row :
         ppro ? paper::terrain_ppro_rows() : paper::terrain_exemplar_rows())
      s.units.push_back(terrain_coarse(cfg, row.processors, row.processors));
    return {s};
  }
  if (bin == "table11_terrain_tera")
    return {{false,
             {mta_unit(pl::mta_terrain_fine_point(tb, 1)),
              mta_unit(pl::mta_terrain_fine_point(tb, 2)),
              mta_unit(pl::mta_terrain_seq_point(tb))}}};
  if (bin == "table12_terrain_summary")
    return {{true,
             {terrain_seq(tb.alpha), terrain_seq(tb.ppro),
              terrain_seq(tb.exemplar), mta_unit(pl::mta_terrain_seq_point(tb)),
              terrain_coarse(tb.ppro, 4, 4), terrain_coarse(tb.exemplar, 4, 4),
              terrain_coarse(tb.exemplar, 8, 8),
              terrain_coarse(tb.exemplar, 16, 16),
              mta_unit(pl::mta_terrain_fine_point(tb, 1)),
              mta_unit(pl::mta_terrain_fine_point(tb, 2))}}};

  // --- ablations and projections ---
  if (bin == "ablate_finegrain_smp")
    return {{false,
             {terrain_seq(tb.ppro), terrain_coarse(tb.ppro, 4, 4),
              terrain_seq(tb.exemplar), terrain_coarse(tb.exemplar, 16, 16),
              mta_unit(pl::mta_terrain_fine_point(tb, 1))}}};
  if (bin == "ablate_mta_latency") {
    std::vector<Sweep> sweeps(2);
    for (const int chunks : {8, 16, 32, 64, 128, 256}) {
      for (const int spacing : {11, 21, 42}) {
        mta::MtaConfig cfg = pl::make_mta_config(1);
        cfg.issue_spacing_cycles = spacing;
        sweeps[0].units.push_back(chunked_unit(tb, cfg, chunks));
      }
      for (const int latency : {35, 70, 140}) {
        mta::MtaConfig cfg = pl::make_mta_config(1);
        cfg.memory_latency_cycles = latency;
        sweeps[1].units.push_back(chunked_unit(tb, cfg, chunks));
      }
    }
    return sweeps;
  }
  if (bin == "ablate_terrain_blocks") {
    Sweep s;
    for (const int b : {1, 2, 4, 10, 20, 40})
      s.units.push_back(terrain_coarse(tb.exemplar, 16, 16, b));
    return {s};
  }
  if (bin == "ablate_terrain_pipelines") {
    std::vector<Sweep> sweeps(2);
    for (const std::size_t n : {1, 2, 4, 6, 10, 16})
      for (const int procs : {1, 2}) {
        c3i::terrain::MtaFineParams params;
        params.pipelines = n;
        sweeps[0].units.push_back(
            mta_unit(pl::mta_terrain_fine_point(tb, procs, params)));
      }
    for (const std::size_t n : {4, 8, 12, 24, 48, 96})
      for (const int procs : {1, 2}) {
        c3i::terrain::MtaFineParams params;
        params.ring_cells_per_stream = n;
        sweeps[1].units.push_back(
            mta_unit(pl::mta_terrain_fine_point(tb, procs, params)));
      }
    return sweeps;
  }
  if (bin == "ablate_terrain_sched") {
    Sweep s;
    for (const int p : {2, 4, 8, 12, 16}) {
      s.units.push_back(terrain_coarse(tb.exemplar, p, p));
      s.units.push_back(smp_unit([T, p] {
        return pl::terrain_coarse_static_seconds(*T, T->exemplar, p, p);
      }));
    }
    return {s};
  }
  if (bin == "ablate_threat_finegrain")
    return {{false,
             {mta_unit(pl::mta_threat_chunked_point(tb, 256, 1)),
              mta_unit(pl::mta_threat_chunked_point(tb, 256, 2)),
              mta_unit(pl::mta_threat_finegrained_point(tb, 1)),
              mta_unit(pl::mta_threat_finegrained_point(tb, 2))}}};
  if (bin == "project_mta_scaling") {
    Sweep s;
    for (const int procs : {1, 2, 4, 8, 16})
      for (const bool scalable : {false, true}) {
        mta::MtaConfig cfg = pl::make_mta_config(procs);
        if (scalable) cfg.network_ops_per_cycle = 0.39 * procs;
        s.units.push_back(chunked_unit(tb, cfg, 256));
      }
    return {s};
  }
  if (bin == "project_smp_scaling") {
    Sweep s{false, {threat_seq(tb.exemplar), terrain_seq(tb.exemplar)}};
    for (const int p : {1, 2, 4, 8, 16, 32, 64}) {
      s.units.push_back(threat_chunked(tb.exemplar, p, p));
      s.units.push_back(terrain_coarse(tb.exemplar, p, p));
    }
    return {s};
  }
  if (bin == "mta_timeline") {
    mta::MtaConfig cfg = pl::make_mta_config(1);
    cfg.timeline_bucket_cycles = 10'000;
    return {{true,
             {chunked_unit(tb, cfg, 256),
              custom_unit(cfg,
                          [T](mta::Machine& m, mta::ProgramPool& pool) {
                            c3i::terrain::build_mta_finegrained(
                                pool, m, T->terrain_profile_scaled,
                                T->terrain_costs_scaled);
                          }),
              chunked_unit(tb, cfg, 8)}}};
  }
  // smp_timeline: not replayed (see top).
  return {};
}

// Bench binaries that never call bench::testbed(), so pay no cache load.
const std::set<std::string> kNoTestbed = {
    "ablate_mta_banks", "ablate_mta_lookahead", "ablate_mta_spawn_tree",
    "autopar_verdicts", "host_parallel",        "mta_utilization"};

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// testbed_scenarios() with every seed replaced by one derived from `seed`:
/// same generators and parameters, inputs never used while tuning.
platforms::TestbedScenarios heldout_scenarios(std::uint64_t seed) {
  platforms::TestbedScenarios s = platforms::testbed_scenarios();
  for (std::size_t i = 0; i < s.threat.size(); ++i) {
    const std::string name = "heldout-" + s.threat[i].name;
    s.threat[i] = c3i::threat::generate_scenario(mix(seed * 16 + i));
    s.threat[i].name = name;
  }
  for (std::size_t i = 0; i < s.terrain.size(); ++i) {
    const std::string name = "heldout-" + s.terrain[i].name;
    s.terrain[i] = c3i::terrain::generate_geometry(mix(seed * 16 + 8 + i));
    s.terrain[i].name = name;
  }
  // The scaled MTA inputs keep testbed_scenarios()'s parameters.
  c3i::threat::ScenarioParams tp;
  tp.num_threats = 256;
  tp.num_weapons = 8;
  tp.dt = 5.0;
  s.threat_scaled = c3i::threat::generate_scenario(mix(seed * 16 + 14), tp);
  c3i::terrain::ScenarioParams gp;
  gp.x_size = 320;
  gp.y_size = 320;
  gp.num_threats = 60;
  s.terrain_scaled = c3i::terrain::generate_geometry(mix(seed * 16 + 15), gp);
  return s;
}

struct PointCost {
  double busy_s = 0.0;
  double build_s = 0.0;
  double mta_s = 0.0;
  double smp_s = 0.0;
  std::uint64_t instr = 0;
  std::uint64_t cycles = 0;
  int mta_runs = 0;
  int smp_runs = 0;
};

PointCost run_unit(const Unit& u) {
  PointCost c;
  const auto start = Clock::now();
  if (u.smp) {
    timed(c.smp_s, u.smp);
    c.smp_runs = 1;
  } else {
    const obs::ScopedScenarioLabel label(u.scenario);
    mta::Machine machine(u.config);
    mta::ProgramPool pool;
    timed(c.build_s, [&] { u.build(machine, pool); });
    const mta::MtaRunResult r = timed(c.mta_s, [&] { return machine.run(); });
    c.instr = r.instructions_issued;
    c.cycles = r.cycles;
    c.mta_runs = 1;
  }
  c.busy_s = since(start);
  return c;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir, ec))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("layer_trace: traced in-process replay of one bench binary");
  cli.add_flag("binary", "", "bench binary name");
  cli.add_flag("jobs", "1", "sim::run_sweep workers (as the bench binary gets)");
  cli.add_flag("obs-dir", "", "write every obs output file into this directory");
  cli.add_flag("seed", "", "held-out scenario seed (default: the paper's seeds)");
  cli.add_flag("setup", "1", "1: time the cold set-up stages first; 0: skip them");
  if (!cli.parse(argc, argv)) return 2;
  const std::string bin = cli.get("binary");
  const int jobs = static_cast<int>(cli.get_int("jobs"));
  const std::string obs_dir = cli.get("obs-dir");
  const bool heldout = cli.is_set("seed");
  const bool setup = cli.get_int("setup") != 0;
  if (bin.empty() || jobs < 1 || (heldout && !setup)) {
    std::cerr << "layer_trace: need --binary, --jobs >= 1, and --setup 1 "
                 "with --seed\n";
    return 2;
  }

  double scenario_s = 0, profile_s = 0, assemble_s = 0, cache_load_s = 0;
  double sweep_wall_s = 0, obs_write_s = 0, max_point_s = 0;
  PointCost sum;
  const auto t0 = Clock::now();

  // Set-up stages, uncached, as a cold bench process runs them. The held-out
  // replay runs against the testbed built here.
  std::optional<platforms::Testbed> built;
  if (setup) {
    const platforms::TestbedScenarios scenarios = timed(scenario_s, [&] {
      return heldout ? heldout_scenarios(static_cast<std::uint64_t>(
                           cli.get_int("seed")))
                     : platforms::testbed_scenarios();
    });
    platforms::TestbedProfiles profiles = timed(
        profile_s, [&] { return platforms::profile_testbed_kernels(scenarios); });
    built.emplace(timed(assemble_s, [&] {
      return platforms::assemble_testbed(std::move(profiles));
    }));
  }

  std::vector<std::string> args = {bin, "--jobs", std::to_string(jobs)};
  if (!obs_dir.empty()) {
    const std::string base = obs_dir + "/" + bin;
    args.insert(args.end(),
                {"--report-out", base + ".report.json", "--timeline-out",
                 base + ".timeline.csv", "--sweep-report-out",
                 base + ".sweep.json", "--trace-out", base + ".trace.json",
                 "--counters"});
  }
  std::vector<const char*> argv_s;
  for (const auto& a : args) argv_s.push_back(a.c_str());
  CliParser session_cli(bin);
  obs::RunSession::add_cli_flags(session_cli);
  if (!session_cli.parse(static_cast<int>(argv_s.size()), argv_s.data()))
    return 2;
  obs::RunSession session(bin, session_cli);

  std::vector<Sweep> sweeps;
  std::optional<platforms::Testbed> loaded;
  if (kNoTestbed.count(bin) != 0) {
    sweeps = replay_standalone(bin);
  } else {
    // A bench process that uses the testbed loads the warm cache once.
    if (!heldout)
      loaded.emplace(timed(cache_load_s,
                           [] { return platforms::load_or_build_testbed(); }));
    sweeps = replay_binary(bin, loaded ? *loaded : *built);
  }

  for (const Sweep& sw : sweeps) {
    const int sweep_jobs = sw.serial ? 1 : session.jobs();
    const std::vector<PointCost> costs = timed(sweep_wall_s, [&] {
      return sim::run_sweep(sw.units.size(), sweep_jobs, [&](std::size_t i) {
        return run_unit(sw.units[i]);
      });
    });
    for (const PointCost& c : costs) {
      sum.busy_s += c.busy_s;
      sum.build_s += c.build_s;
      sum.mta_s += c.mta_s;
      sum.smp_s += c.smp_s;
      sum.instr += c.instr;
      sum.cycles += c.cycles;
      sum.mta_runs += c.mta_runs;
      sum.smp_runs += c.smp_runs;
      max_point_s = std::max(max_point_s, c.busy_s);
    }
  }
  // Flush stdout first so the counter dump cannot interleave with ours.
  std::cout.flush();
  timed(obs_write_s, [&] { session.finish(); });
  const double wall_s = since(t0);
  const std::uint64_t obs_bytes = obs_dir.empty() ? 0 : dir_bytes(obs_dir);

  const double attributed = scenario_s + profile_s + assemble_s +
                            cache_load_s + sweep_wall_s + obs_write_s;
  auto share = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<std::pair<std::string, double>> m = {
      {"c3i.scenario_s", scenario_s},
      {"c3i.profile_s", profile_s},
      {"c3i.trace_build_s", sum.build_s},
      {"platforms.assemble_s", assemble_s},
      {"platforms.cache_load_s", cache_load_s},
      {"mta.sim_s", sum.mta_s},
      {"mta.runs", sum.mta_runs},
      {"mta.instr", static_cast<double>(sum.instr)},
      {"mta.cycles", static_cast<double>(sum.cycles)},
      {"mta.instr_per_s", share(static_cast<double>(sum.instr), sum.mta_s)},
      {"smp.sim_s", sum.smp_s},
      {"smp.runs", sum.smp_runs},
      {"sweep.wall_s", sweep_wall_s},
      {"sweep.busy_s", sum.busy_s},
      {"sweep.busy_share", share(sum.busy_s, session.jobs() * sweep_wall_s)},
      {"sweep.jobs", session.jobs()},
      {"sweep.max_point_s", max_point_s},
      {"obs.write_s", obs_write_s},
      {"obs.bytes", static_cast<double>(obs_bytes)},
      {"traced.wall_s", wall_s},
      {"traced.unattributed_s", wall_s - attributed},
  };
  std::cout << "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m[i].second);
    std::cout << (i ? ", " : "") << '"' << m[i].first << "\": " << buf;
  }
  std::cout << ", \"heldout\": " << (heldout ? "true" : "false") << "}\n";
  return 0;
}
