#!/usr/bin/env bash
# Tier-1 verification: configure with strict warnings, build, run the full
# test suite, then smoke-run one instrumented bench and validate its JSON
# outputs. Usage: scripts/check.sh [build-dir]  (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

echo "== configure (-Wall -Wextra -Werror) =="
cmake -B "$BUILD_DIR" -S . -DTC3I_WERROR=ON >/dev/null

echo "== build =="
cmake --build "$BUILD_DIR" -j >/dev/null

echo "== ctest =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)" >/dev/null
echo "tests passed"

echo "== instrumented smoke run =="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
"$BUILD_DIR"/bench/table05_threat_tera \
    --trace-out "$SMOKE_DIR/t.json" \
    --report-out "$SMOKE_DIR/r.json" \
    --timeline-out "$SMOKE_DIR/tl.csv" \
    --sample-period 2048 \
    --counters >/dev/null
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/t.json" "$SMOKE_DIR/r.json" \
    "$SMOKE_DIR/tl.csv"

# The trace must carry all four simulator event categories and the report
# must carry comparison rows plus a populated counter snapshot.
for cat in issue memory sync spawn; do
  grep -q "\"cat\":\"$cat\"" "$SMOKE_DIR/t.json" ||
    { echo "FAIL: trace missing category '$cat'"; exit 1; }
done
grep -q '"label":' "$SMOKE_DIR/r.json" ||
  { echo "FAIL: report has no comparison rows"; exit 1; }
[ "$(grep -o '"mta\.[a-z0-9_.]*":' "$SMOKE_DIR/r.json" | sort -u | wc -l)" -ge 10 ] ||
  { echo "FAIL: report has fewer than 10 named counters"; exit 1; }
[ -s "$SMOKE_DIR/t.csv" ] ||
  { echo "FAIL: sibling CSV timeline missing"; exit 1; }

echo "== sampled timeline + bottleneck verdicts =="
# The sampled timeline must be non-empty and strictly monotone in cycle
# within each (run, series) pair.
[ -s "$SMOKE_DIR/tl.csv" ] ||
  { echo "FAIL: sampled timeline CSV missing"; exit 1; }
awk -F, 'NR == 1 { next }
         { key = $1 "," $4 }
         key in last && $5 <= last[key] {
           print "FAIL: non-monotone cycle in " key; bad = 1; exit 1 }
         { last[key] = $5 }
         END { exit bad }' "$SMOKE_DIR/tl.csv" ||
  { echo "FAIL: timeline cycles not monotone"; exit 1; }

# The bottleneck analyzer must produce a verdict line for the smoke report,
# and a report diffed against itself must match exactly.
"$BUILD_DIR"/tools/bottleneck_report "$SMOKE_DIR/r.json" |
  grep -q '^verdict' ||
  { echo "FAIL: bottleneck_report printed no verdict"; exit 1; }
"$BUILD_DIR"/tools/report_diff "$SMOKE_DIR/r.json" "$SMOKE_DIR/r.json" \
  >/dev/null ||
  { echo "FAIL: report_diff self-diff reported differences"; exit 1; }

echo "== sweep telemetry (report + trace + independent recomputation) =="
# A --jobs run with sweep telemetry enabled must produce a schema-valid
# SweepReport and sweep-scheduler trace, and the report's aggregate
# sections must match an independent recomputation from the per-run
# RunReport (host accounting differs by construction: --from-runs has no
# host to sample).
"$BUILD_DIR"/bench/table05_threat_tera \
    --jobs 4 \
    --report-out "$SMOKE_DIR/sw_runs.json" \
    --sweep-report-out "$SMOKE_DIR/sw.json" \
    --sweep-trace-out "$SMOKE_DIR/sw_trace.json" >/dev/null
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sw.json" "$SMOKE_DIR/sw_trace.json"
grep -q '"kind":"sweep_report"' "$SMOKE_DIR/sw.json" ||
  { echo "FAIL: sweep report missing kind=sweep_report"; exit 1; }
grep -q '"sweep scheduler"' "$SMOKE_DIR/sw_trace.json" ||
  { echo "FAIL: sweep trace has no scheduler track"; exit 1; }
"$BUILD_DIR"/tools/sweep_report --from-runs "$SMOKE_DIR/sw_runs.json" \
    > "$SMOKE_DIR/sw_recomputed.json"
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sw_recomputed.json"
"$BUILD_DIR"/tools/report_diff "$SMOKE_DIR/sw.json" \
    "$SMOKE_DIR/sw_recomputed.json" --ignore host >/dev/null ||
  { echo "FAIL: sweep report disagrees with recomputation from runs"; \
    exit 1; }
echo "sweep report matches independent recomputation"

echo "== report is --jobs invariant =="
# Sweep points run under forked obs contexts merged in submission order, so
# the same binary at --jobs 1 and --jobs 3 must produce the identical
# report (modulo wall-clock timings).
"$BUILD_DIR"/bench/table05_threat_tera --jobs 1 \
    --report-out "$SMOKE_DIR/jobs1.json" >/dev/null
"$BUILD_DIR"/bench/table05_threat_tera --jobs 3 \
    --report-out "$SMOKE_DIR/jobs3.json" >/dev/null
"$BUILD_DIR"/tools/report_diff "$SMOKE_DIR/jobs1.json" \
    "$SMOKE_DIR/jobs3.json" --ignore mta.run.wall_seconds \
    >/dev/null ||
  { echo "FAIL: report changes between --jobs 1 and --jobs 3"; exit 1; }
echo "report identical at --jobs 1 and --jobs 3"

# Schema validation must actually reject: a minimal v6 report without the
# machine_runs array is corrupt.
cat > "$SMOKE_DIR/bad_report.json" <<'EOF'
{"bench":"fixture","schema_version":6,"config":{},"counters":{},
 "gauges":{},"histograms":{},"rows":[],"notes":[]}
EOF
if "$BUILD_DIR"/tools/json_check "$SMOKE_DIR/bad_report.json" \
    >/dev/null 2>&1; then
  echo "FAIL: json_check accepted a v6 report without machine_runs"
  exit 1
fi
# The same fixture with an empty machine_runs array must pass (the
# rejection above is the machine_runs rule, not some other complaint).
sed 's/"notes":\[\]}/"notes":[],"machine_runs":[]}/' \
    "$SMOKE_DIR/bad_report.json" > "$SMOKE_DIR/ok_report.json"
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/ok_report.json" >/dev/null ||
  { echo "FAIL: json_check rejected a report with empty machine_runs"; \
    exit 1; }
echo "schema validation rejects a report without machine_runs"

echo "== TSan smoke (sim_sweep, sthreads tests under -fsanitize=thread) =="
# The sweep and sthreads tests cover the obs::Context fork, submission-order
# merge and inheritance by child threads, which all cross threads; prove
# them data-race-free under ThreadSanitizer where the toolchain supports
# it.
if printf 'int main(){return 0;}' |
    c++ -fsanitize=thread -x c++ - -o "$SMOKE_DIR/tsan_probe" 2>/dev/null &&
    "$SMOKE_DIR/tsan_probe" 2>/dev/null; then
  TSAN_DIR="build-tsan"
  cmake -B "$TSAN_DIR" -S . -DTC3I_SANITIZE=thread -DTC3I_WERROR=ON \
      >/dev/null
  for T in sim_sweep_test sthreads_test; do
    cmake --build "$TSAN_DIR" --target "$T" -j >/dev/null
    "$TSAN_DIR"/tests/"$T" >/dev/null ||
      { echo "FAIL: $T failed under TSan"; exit 1; }
  done
  echo "sim_sweep_test + sthreads_test clean under ThreadSanitizer"
  # Drive the sim::run_sweep worker pool (per-point context forks,
  # submission-order merge) through a real table sweep under TSan as well.
  cmake --build "$TSAN_DIR" --target table05_threat_tera -j >/dev/null
  "$TSAN_DIR"/bench/table05_threat_tera --jobs 4 >/dev/null ||
    { echo "FAIL: table05 --jobs 4 failed under TSan"; exit 1; }
  echo "table05 --jobs 4 clean under ThreadSanitizer"
else
  echo "skipped: toolchain lacks -fsanitize=thread support"
fi

echo "== ASan (whole ctest suite under -fsanitize=address) =="
# Every test runs under AddressSanitizer where the toolchain supports it.
# The sim tests write counters under short-lived scoped registries, so a
# counter reference kept past its registry shows up here as a
# use-after-free. The MTA core's wake lanes and ready queues are masked
# power-of-two rings, where an overrun would otherwise be silent; the
# golden and fuzz suites drive them against the reference.
if printf 'int main(){return 0;}' |
    c++ -fsanitize=address -x c++ - -o "$SMOKE_DIR/asan_probe" 2>/dev/null &&
    "$SMOKE_DIR/asan_probe" 2>/dev/null; then
  ASAN_DIR="build-asan"
  cmake -B "$ASAN_DIR" -S . -DTC3I_SANITIZE=address -DTC3I_WERROR=ON \
      >/dev/null
  cmake --build "$ASAN_DIR" -j >/dev/null
  ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$(nproc)" >/dev/null ||
    { echo "FAIL: ctest failed under ASan"; exit 1; }
  echo "whole ctest suite clean under AddressSanitizer"
else
  echo "skipped: toolchain lacks -fsanitize=address support"
fi

echo "== UBSan (whole ctest suite under -fsanitize=undefined) =="
# Every test runs with each undefined-behavior report fatal. The
# simulator's fixed-point network service, wake lanes and slot accounting
# do shift and wrap-prone unsigned arithmetic; the golden and
# differential fuzz suites (fast path vs slow reference) drive them.
if printf 'int main(){return 0;}' |
    c++ -fsanitize=undefined -x c++ - -o "$SMOKE_DIR/ubsan_probe" \
        2>/dev/null &&
    "$SMOKE_DIR/ubsan_probe" 2>/dev/null; then
  UBSAN_DIR="build-ubsan"
  cmake -B "$UBSAN_DIR" -S . -DTC3I_SANITIZE=undefined -DTC3I_WERROR=ON \
      >/dev/null
  cmake --build "$UBSAN_DIR" -j >/dev/null
  ctest --test-dir "$UBSAN_DIR" --output-on-failure -j "$(nproc)" >/dev/null ||
    { echo "FAIL: ctest failed under UBSan"; exit 1; }
  echo "whole ctest suite clean under UndefinedBehaviorSanitizer"
else
  echo "skipped: toolchain lacks -fsanitize=undefined support"
fi

echo "== perf smoke (sim_throughput vs committed baseline) =="
# Fails (exit 1) when any throughput metric drops below 70% of the
# committed bench/BENCH_sim_throughput.json (--min-ratio default 0.7,
# i.e. a >30% regression).
"$BUILD_DIR"/bench/sim_throughput \
    --report-out "$SMOKE_DIR/sim_throughput.json" \
    --baseline bench/BENCH_sim_throughput.json
"$BUILD_DIR"/tools/json_check "$SMOKE_DIR/sim_throughput.json"

# Sweep telemetry must stay cheap: running a 100-point sweep with the
# full telemetry stack (sched store + aggregation + report/trace
# serialization) must keep at least 95% of the plain sweep throughput.
extract_measured() {
  grep -o "\"label\":\"$1\",\"paper\":[0-9.eE+-]*,\"measured\":[0-9.eE+-]*" \
      "$SMOKE_DIR/sim_throughput.json" | sed 's/.*"measured"://'
}
SP="$(extract_measured 'sweep_plain.points_per_sec')"
ST="$(extract_measured 'sweep_telemetry.points_per_sec')"
[ -n "$SP" ] && [ -n "$ST" ] ||
  { echo "FAIL: sim_throughput report missing sweep_plain/telemetry rows"; \
    exit 1; }
awk -v sp="$SP" -v st="$ST" 'BEGIN { exit !(st >= 0.95 * sp) }' ||
  { echo "FAIL: sweep_telemetry $ST < 0.95 x sweep_plain $SP points/s"; \
    exit 1; }
echo "sweep telemetry overhead within budget ($ST vs plain $SP points/s)"

echo "== perf trend gate (bench/BENCH_history.jsonl) =="
# Gate this run's sim_throughput rows against the committed history without
# writing to it: append the run to a copy, then check the copy's newest
# entry against the trailing window (median - k x MAD robust floor, plus a
# minimum-drop threshold; see tools/perf_trend.cpp). Recording a datapoint
# in the committed file is a separate, explicit step (docs/PERFORMANCE.md).
# The gate must also demonstrably fire: the same run appended once more to
# a second copy at a 2x slowdown must fail.
cp bench/BENCH_history.jsonl "$SMOKE_DIR/hist.jsonl"
"$BUILD_DIR"/tools/perf_trend append "$SMOKE_DIR/hist.jsonl" \
    "$SMOKE_DIR/sim_throughput.json"
"$BUILD_DIR"/tools/perf_trend check "$SMOKE_DIR/hist.jsonl" ||
  { echo "FAIL: perf trend gate flagged this run as a regression"; exit 1; }
cp "$SMOKE_DIR/hist.jsonl" "$SMOKE_DIR/hist_bad.jsonl"
"$BUILD_DIR"/tools/perf_trend append "$SMOKE_DIR/hist_bad.jsonl" \
    "$SMOKE_DIR/sim_throughput.json" --scale 0.5
if "$BUILD_DIR"/tools/perf_trend check "$SMOKE_DIR/hist_bad.jsonl" \
    >/dev/null 2>&1; then
  echo "FAIL: perf trend gate did not flag an injected 2x slowdown"; exit 1
fi
echo "perf trend gate passes on this run, fails on injected 2x slowdown"

echo "ALL CHECKS PASSED"
