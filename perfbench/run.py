#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table2_direct --seed 0 \\
        --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics named in
``BENCHMARK.json``; ``--trace 1`` runs the workload again with span
recording around each layer's entry points and prints the per-layer
metrics instead.  The program under test is imported from ``src/`` of
the same checkout; without it the script exits with status 2.

Every output is checked.  Human-readable detail (host description,
per-row ledger next to the paper's Table II numbers, failures) goes to
standard output before the result line and, in full, to
``.perfbench/reports/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_ledger(ledger) -> None:
    print(f"{'row':16s} {'n':>3s} {'g_ori':>6s} {'t_s':>8s} {'g_add':>6s} "
          f"{'depth':>6s} | {'paper g_la':>10s} {'g_op':>6s} {'t_op':>6s}")
    for row in ledger:
        print(f"{row['name']:16s} {row['n']:3d} {row['g_ori']:6d} "
              f"{row['compile_s']:8.4f} {row['g_add']:6d} {row['depth']:6d} | "
              f"{row['paper_g_la']:10d} {row['paper_g_op']:6d} "
              f"{row['paper_t_op']:6.3f}")


def main(argv=None) -> int:
    from measure import become_subreaper, stop_descendants

    become_subreaper()
    try:
        return _main(argv)
    finally:
        stop_descendants()


def _main(argv) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")

    from measure import host_metadata

    (OUT / "reports").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    started = time.perf_counter()
    import table2

    outcome = table2.run(args.workload, args.seed, args.seconds,
                         bool(args.trace),
                         str(OUT / "reports" / f"{stem}.spans.jsonl"))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = outcome["layers"] if args.trace else outcome["e2e"]
    names = {m["name"] for m in wanted}
    unknown = sorted(set(produced) - names)
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A per-layer metric a workload does not produce is a layer that did
    # no work on it; end-to-end metrics must all be measured.
    default = 0.0 if args.trace else None
    metrics = {}
    for m in wanted:
        value = produced.get(m["name"], default)
        if value is None:
            raise KeyError(f"workload produced no {m['name']!r}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "host": host_metadata(),
        "meta": outcome["meta"],
        "failures": outcome["failures"],
        "ledger": outcome["ledger"],
        "metrics": metrics,
    }
    (OUT / "reports" / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print("host:", json.dumps(report["host"]))
    print("meta:", json.dumps(outcome["meta"]))
    _print_ledger(outcome["ledger"])
    for failure in outcome["failures"]:
        print("FAILED:", failure)
    print(json.dumps({
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
