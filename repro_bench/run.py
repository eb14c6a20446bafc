#!/usr/bin/env python3
"""repro_bench: end-to-end and per-layer benchmark of the paper reproduction.

Run from the root of a checkout:

    python3 repro_bench/run.py --workload paper_tables --seed 1 --seconds 15 --trace 0

It builds the repository (with repro_bench/CMakeLists.txt) under
.bench_build/repro_bench/, times the set-up (a cold testbed build), runs the
workload's bench binaries as separate processes, one at a time, for at least
--seconds, and checks every invocation against the digests in expected.json.
--trace 1 instead runs one pass for the per-binary times plus the traced
in-process replay (layer_trace) and reports per-layer metrics. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

Each result is also appended, with the host fingerprint, to
.bench_build/repro_bench/results.jsonl; compare.py compares two such files.
--seed only shuffles the order in which a pass runs the binaries: the bench
binaries take the paper's fixed inputs. --scenario-seed hands a held-out
scenario seed to the traced replay instead (see README.md).
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "repro_bench"
EXPECTED = HERE / "expected.json"

PAPER_TABLES = [
    "table01_platforms", "table02_threat_seq", "table03_fig1_threat_ppro",
    "table04_fig2_threat_exemplar", "table05_threat_tera",
    "table06_threat_tera_chunks", "table07_threat_summary",
    "table08_terrain_seq", "table09_fig3_terrain_ppro",
    "table10_fig4_terrain_exemplar", "table11_terrain_tera",
    "table12_terrain_summary",
]
ABLATION_SWEEPS = [
    "ablate_finegrain_smp", "ablate_mta_banks", "ablate_mta_latency",
    "ablate_mta_lookahead", "ablate_mta_spawn_tree", "ablate_terrain_blocks",
    "ablate_terrain_pipelines", "ablate_terrain_sched",
    "ablate_threat_finegrain", "project_mta_scaling", "project_smp_scaling",
    "autopar_verdicts", "mta_utilization", "mta_timeline", "smp_timeline",
    "host_parallel",
]
OBSERVED_TABLES = ["table05_threat_tera", "table06_threat_tera_chunks",
                   "table11_terrain_tera", "mta_utilization"]

# jobs: "nproc" means every CPU this process may run on.
# obs: pass the obs output flags and check every emitted file.
WORKLOADS = {
    "paper_tables": {"binaries": PAPER_TABLES, "jobs": 1, "obs": False},
    "ablation_sweeps": {"binaries": ABLATION_SWEEPS, "jobs": "nproc", "obs": False},
    "observed_tables": {"binaries": OBSERVED_TABLES, "jobs": 1, "obs": True},
}
SETUP_BINARY = "table01_platforms"
SETUP_REPS = 5
# Binaries whose stdout reports host timings: their digest ignores numbers
# and the table padding that follows their width.
HOST_TIMED = {"host_parallel"}
INVOCATION_TIMEOUT_S = 120
RUN_BUDGET_S = 150  # stop starting passes past this, to end within 180 s


def log(msg):
    print(f"[repro_bench] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def jobs_for(spec):
    return nproc() if spec["jobs"] == "nproc" else spec["jobs"]


class Paths:
    """Where the built program and the benchmark's scratch files live."""

    def __init__(self, work):
        self.work = Path(work)
        self.build = self.work / "build"
        self.bench_dir = self.build / "tc3i" / "bench"
        self.json_check = self.build / "tc3i" / "tools" / "json_check"
        self.tracer = self.build / "layer_trace"
        self.cache = self.work / "testbed_cache"
        self.obs = self.work / "obs"
        self.results = self.work / "results.jsonl"

    def binary(self, name):
        return self.bench_dir / name


def build(paths):
    """Configures (once) and builds every target the benchmark runs."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("repro_bench: no repository sources next to "
                         "repro_bench/; run from a full checkout")
    paths.work.mkdir(parents=True, exist_ok=True)
    log_path = paths.work / "build.log"
    steps = []
    if not (paths.build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(paths.build),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(paths.build), "-j", str(nproc()),
                  "--target", "repro_bench_targets"])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                sys.stderr.write(log_path.read_text()[-4000:])
                raise SystemExit("repro_bench: build failed (see above)")


def fingerprint(paths):
    """Host identity (compared) plus code identity (recorded)."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache, cache_file = {}, paths.build / "CMakeCache.txt"
    for line in (cache_file.read_text().splitlines()
                 if cache_file.is_file() else []):
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        commit = commit.stdout.strip() if commit.returncode == 0 else "none"
    except OSError:
        commit = "none"
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "bench", "tools"):
        base = ROOT / top
        files = [base] if base.is_file() else sorted(base.rglob("*"))
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode() + b"\0")
                h.update(f.read_bytes())
    return {
        "host": {"cpu": cpu, "nproc": nproc(), "compiler": version,
                 "build_type": cache.get("CMAKE_BUILD_TYPE", "")},
        "commit": commit,
        "source_sha256": h.hexdigest(),
    }


# --- one invocation -----------------------------------------------------------

def invoke(cmd, env, out_path):
    """Runs cmd to completion; returns (exit code, wall s, cpu s, max RSS MB,
    stdout text). Host time and rusage come from this process's wait4."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S,
                                 lambda: os.kill(proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = Path(out_path).read_text(errors="replace")
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0, text)


COUNTER_HEADER = re.compile(r"^\[obs\] counters \(")


def split_output(text):
    """Separates a bench's own output from the obs lines: drops '[obs] ...'
    output-path lines and the --counters dump (which holds host times);
    returns (table text, counter dict)."""
    kept, counters, in_counters = [], {}, False
    for line in text.splitlines():
        if COUNTER_HEADER.match(line):
            in_counters = True
            continue
        if in_counters and line.startswith("  "):
            parts = line.split()
            if len(parts) == 2:
                counters[parts[0]] = parts[1]
            continue
        in_counters = False
        if line.startswith("[obs]"):
            continue
        kept.append(line)
    return "\n".join(kept) + "\n", counters


def digest(binary, table_text):
    if binary in HOST_TIMED:
        table_text = re.sub(r"[ -]+", " ",
                            re.sub(r"\d+(\.\d+)?", "#", table_text))
    return hashlib.sha256(table_text.encode()).hexdigest()


def paper_rows(table_text):
    """(paper, measured) pairs from every ASCII table whose header pairs a
    'Paper' column with a 'Measured' column of seconds."""
    rows, pairs, header = [], [], None
    for line in table_text.splitlines():
        if line.startswith("+"):
            continue
        if not line.startswith("|"):
            header, pairs = None, []
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if header is None:
            header = cells
            for i, h in enumerate(cells):
                if h in ("Paper", "Paper (s)"):
                    twin = "Measured" + h[len("Paper"):]
                    if twin in cells:
                        pairs.append((i, cells.index(twin)))
            continue
        for i, j in pairs:
            try:
                p, m = float(cells[i]), float(cells[j])
            except (ValueError, IndexError):
                continue
            if p > 0 and m > 0:
                rows.append((p, m))
    return rows


def paper_err(rows):
    """Geometric-mean factor between measured and paper values (1 = exact;
    also 1 for a workload that prints no paper rows)."""
    if not rows:
        return 1.0
    return math.exp(sum(abs(math.log(m / p)) for p, m in rows) / len(rows))


def obs_files(obs_dir, binary):
    base = obs_dir / binary
    return {"--report-out": Path(f"{base}.report.json"),
            "--timeline-out": Path(f"{base}.timeline.csv"),
            "--sweep-report-out": Path(f"{base}.sweep.json"),
            "--trace-out": Path(f"{base}.trace.json")}


class Runner:
    """Runs passes of one workload and checks each invocation."""

    def __init__(self, name, spec, paths, expected):
        self.name, self.spec, self.paths = name, spec, paths
        self.expected = expected.get(name, {})
        self.jobs = jobs_for(spec)
        self.env = dict(os.environ, TC3I_TESTBED_CACHE=str(paths.cache))
        self.attempted = 0
        self.failed = 0
        self.recording = False  # --record: the digests are being written
        self.recorded = {}

    def args(self, binary, obs):
        args = ["--jobs", str(self.jobs), "--counters"]
        if obs:
            for flag, path in obs_files(self.paths.obs, binary).items():
                args += [flag, str(path)]
        return args

    def fail(self, binary, why):
        self.failed += 1
        log(f"FAILED {self.name}/{binary}: {why}")

    def check(self, binary, expected, code, table_text, issue_total, obs):
        if code != 0:
            return f"exit code {code}"
        if self.recording:
            return None
        if expected is None:
            return "no expected digest recorded"
        if digest(binary, table_text) != expected["digest"]:
            return "stdout digest differs from expected.json"
        if issue_total != expected["issue_total"]:
            return (f"mta.issue.total {issue_total} != "
                    f"{expected['issue_total']}")
        if obs:
            files = obs_files(self.paths.obs, binary)
            trace_csv = files["--trace-out"].with_suffix(".csv")
            missing = [str(p) for p in [*files.values(), trace_csv]
                       if not p.is_file() or p.stat().st_size == 0]
            if missing:
                return "missing output " + ", ".join(missing)
            # json_check has no schema for the trace's sibling CSV.
            res = subprocess.run([str(self.paths.json_check),
                                  *map(str, files.values())],
                                 capture_output=True, text=True, cwd=ROOT)
            if res.returncode != 0:
                return "json_check: " + (res.stdout + res.stderr)[-400:]
        return None

    def run_one(self, binary, expected, obs=None):
        """One checked invocation; returns its measurements."""
        obs = self.spec["obs"] if obs is None else obs
        if obs:
            shutil.rmtree(self.paths.obs, ignore_errors=True)
            self.paths.obs.mkdir(parents=True)
        code, wall, cpu, rss, text = invoke(
            [str(self.paths.binary(binary)), *self.args(binary, obs)],
            self.env, self.paths.work / "stdout.txt")
        table_text, counters = split_output(text)
        issue_total = int(counters.get("mta.issue.total", 0))
        self.attempted += 1
        self.recorded[binary] = {"digest": digest(binary, table_text),
                                 "issue_total": issue_total}
        why = self.check(binary, expected, code, table_text, issue_total, obs)
        if why:
            self.fail(binary, why)
        if obs:
            shutil.rmtree(self.paths.obs, ignore_errors=True)
        return {"wall": wall, "cpu": cpu, "rss": rss, "issue": issue_total,
                "paper_rows": paper_rows(table_text)}

    def setup(self, reps):
        """Cold testbed builds: empty cache, run the set-up binary (with
        the workload's --jobs, without obs outputs)."""
        walls = []
        for _ in range(reps):
            shutil.rmtree(self.paths.cache, ignore_errors=True)
            self.paths.cache.mkdir(parents=True)
            walls.append(self.run_one(
                SETUP_BINARY, self.expected.get("setup:" + SETUP_BINARY),
                obs=False)["wall"])
        self.recorded["setup:" + SETUP_BINARY] = self.recorded.pop(SETUP_BINARY)
        return walls

    def one_pass(self, order):
        per_bin = {b: self.run_one(b, self.expected.get(b)) for b in order}
        return {
            "wall": sum(r["wall"] for r in per_bin.values()),
            "cpu": sum(r["cpu"] for r in per_bin.values()),
            "rss": max(r["rss"] for r in per_bin.values()),
            "issue": sum(r["issue"] for r in per_bin.values()),
            "paper_err": paper_err([row for b in self.spec["binaries"]
                                    for row in per_bin[b]["paper_rows"]]),
            "per_bin": {b: r["wall"] for b, r in per_bin.items()},
        }


def end_to_end(runner, seconds, seed, started):
    setup_walls = runner.setup(SETUP_REPS)
    rng = random.Random(seed)
    passes, t0 = [], time.perf_counter()
    while True:
        order = list(runner.spec["binaries"])
        rng.shuffle(order)
        passes.append(runner.one_pass(order))
        measured = time.perf_counter() - t0
        elapsed = time.perf_counter() - started
        if measured >= seconds or elapsed + passes[-1]["wall"] * 1.3 > RUN_BUDGET_S:
            break
    med = lambda key: statistics.median(p[key] for p in passes)
    correct = len({round(p["paper_err"], 12) for p in passes}) == 1 and \
        len({p["issue"] for p in passes}) == 1
    metrics = {
        "wall_s": med("wall"),
        "cpu_s": med("cpu"),
        "peak_rss_mb": med("rss"),
        "setup_s": statistics.median(setup_walls),
        "sim_minstr_per_s": statistics.median(
            p["issue"] / 1e6 / p["wall"] for p in passes),
        "paper_err": passes[0]["paper_err"],
        "ok_share": 1.0 - runner.failed / runner.attempted,
    }
    return correct, metrics, {"passes": len(passes)}


# Per-layer values that are a share, a rate or a maximum; run.py derives
# them from the per-process sums instead of adding them up.
DERIVED_LAYERS = {"mta.instr_per_s", "sweep.busy_share", "sweep.max_point_s"}


def trace_one(runner, binary, scenario_seed, setup):
    """One layer_trace process for one bench binary; returns its per-layer
    values, or None (counted as a failure) when it printed none."""
    cmd = [str(runner.paths.tracer), "--binary", binary,
           "--jobs", str(runner.jobs), "--setup", str(int(setup))]
    if runner.spec["obs"]:
        shutil.rmtree(runner.paths.obs, ignore_errors=True)
        runner.paths.obs.mkdir(parents=True)
        cmd += ["--obs-dir", str(runner.paths.obs)]
    if scenario_seed is not None:
        cmd += ["--seed", str(scenario_seed)]
    code, _, _, _, text = invoke(cmd, runner.env,
                                 runner.paths.work / "trace_stdout.txt")
    shutil.rmtree(runner.paths.obs, ignore_errors=True)
    runner.attempted += 1
    lines = text.strip().splitlines()
    try:
        layers = json.loads(lines[-1]) if code == 0 and lines else None
    except json.JSONDecodeError:
        layers = None
    if not isinstance(layers, dict):
        runner.fail("layer_trace", f"{binary}: exit code {code}, no result")
        return None
    return layers


def traced(runner, scenario_seed, bench_binaries):
    """One untraced pass (per-binary wall) plus the traced replay: one
    layer_trace process per binary, as each bench binary is its own process.
    Only the first runs the set-up stages, except with a held-out scenario
    seed, where each process builds the held-out testbed it replays."""
    runner.setup(1)
    untraced = runner.one_pass(list(runner.spec["binaries"]))
    sums, max_point, jobs = {}, 0.0, runner.jobs
    for i, binary in enumerate(runner.spec["binaries"]):
        layers = trace_one(runner, binary, scenario_seed,
                           setup=i == 0 or scenario_seed is not None)
        if layers is None:
            return False, {}, {}
        max_point = max(max_point, layers["sweep.max_point_s"])
        jobs = layers["sweep.jobs"]
        for k, v in layers.items():
            if k not in DERIVED_LAYERS and k not in ("heldout", "sweep.jobs"):
                sums[k] = sums.get(k, 0.0) + v
    share = lambda num, den: num / den if den > 0 else 0.0
    metrics = dict(sums)
    metrics["mta.instr_per_s"] = share(sums["mta.instr"], sums["mta.sim_s"])
    metrics["sweep.busy_share"] = share(sums["sweep.busy_s"],
                                        jobs * sums["sweep.wall_s"])
    metrics["sweep.max_point_s"] = max_point
    correct = True
    if scenario_seed is None and metrics["mta.instr"] != untraced["issue"]:
        correct = False
        runner.fail("layer_trace", f"mta.instr {metrics['mta.instr']:.0f} != "
                    f"end-to-end mta.issue.total {untraced['issue']}")
    metrics["platforms.cache_bytes"] = sum(
        f.stat().st_size for f in runner.paths.cache.rglob("*") if f.is_file())
    metrics["untraced.wall_s"] = untraced["wall"]
    for b in bench_binaries:
        metrics[f"bench.{b}.wall_s"] = untraced["per_bin"].get(b, 0.0)
    return correct, metrics, {"heldout": scenario_seed is not None}


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None, paths=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None,
                        help="held-out scenario seed for the traced replay")
    parser.add_argument("--record", action="store_true",
                        help="run one pass and store its digests in expected.json")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    spec = WORKLOADS[args.workload]
    bench = load_benchmark()
    own_build = paths is None
    paths = paths or Paths(WORK)
    if own_build:
        build(paths)
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    runner = Runner(args.workload, spec, paths, expected)

    if args.record:
        runner.recording = True
        runner.setup(1)
        runner.one_pass(list(spec["binaries"]))
        expected[args.workload] = dict(sorted(runner.recorded.items()))
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        log(f"recorded {len(runner.recorded)} digests for {args.workload}")
        return 0

    if args.trace:
        declared = bench["per_layer"]
        bench_binaries = [m["name"][len("bench."):-len(".wall_s")]
                          for m in declared if m["name"].startswith("bench.")]
        correct, values, extra = traced(runner, args.scenario_seed, bench_binaries)
    else:
        declared = bench["end_to_end"]
        correct, values, extra = end_to_end(runner, args.seconds, args.seed, started)
    correct = correct and runner.failed == 0
    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            correct = False
            log(f"metric {m['name']} was not measured")
    fp = fingerprint(paths)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fp, **extra,
              "correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    paths.results.parent.mkdir(parents=True, exist_ok=True)
    with open(paths.results, "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    print("# host " + json.dumps(fp["host"], sort_keys=True) +
          f" commit {fp['commit']} source {fp['source_sha256'][:16]}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
