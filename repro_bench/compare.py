#!/usr/bin/env python3
"""Compares two sets of repro_bench results, metric by metric.

    python3 repro_bench/compare.py BASE.jsonl NEW.jsonl

Each file holds records appended by run.py (--trace 0 records are used).
For every workload in both and every end-to-end metric in BENCHMARK.json it
prints both medians, the change as a share of the base median (positive =
worse) and the run-to-run spread (quartile distance over median) of each
side. A change worse than the metric's bound is WORSE; a metric whose spread
exceeds its bound on either side is UNRESOLVED. Exit code 1 if anything is
WORSE or a new run was incorrect, 2 if the host fingerprints differ (results
from different hosts, compilers or build types are never compared), else 0.
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec.get("trace") == 0:
                records.append(rec)
    return records


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base, new, metrics):
    """Returns (exit code, report lines)."""
    hosts = {json.dumps(r["fingerprint"]["host"], sort_keys=True)
             for r in base + new}
    if len(hosts) != 1:
        return 2, ["REFUSED: host fingerprints differ:", *sorted(hosts)]
    lines, code = [], 0
    for rec in new:
        if not rec["correct"]:
            code = 1
            lines.append(f"INCORRECT new run: {rec['workload']} seed "
                         f"{rec['seed']} ({rec['failed']} failed)")
    for workload in sorted({r["workload"] for r in base} &
                           {r["workload"] for r in new}):
        lines.append(f"{workload}:")
        for m in metrics:
            name = m["name"]
            b = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["metrics"]]
            if not b or not n:
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            change = (nm - bm) / bm if bm else 0.0
            if m["better"] == "higher":
                change = -change
            verdict = "ok"
            if change > m["bound"]:
                verdict, code = "WORSE", 1
            elif max(spread(b), spread(n)) > m["bound"]:
                verdict = "UNRESOLVED"
            lines.append(
                f"  {name:18s} base {bm:12.6g} new {nm:12.6g} {m['unit']:9s}"
                f" change {change:+7.2%} (bound {m['bound']:.0%}, spread "
                f"{spread(b):.1%}/{spread(n):.1%}, runs {len(b)}/{len(n)})"
                f" {verdict}")
    return code, lines


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    code, lines = compare(load(argv[0]), load(argv[1]), metrics)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
