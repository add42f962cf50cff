#!/usr/bin/env python3
"""Run every workload untraced and traced, and print every metric by name and unit.

Run from the repository root::

    python3 perfbench/report.py [--seconds 30] [--seed 1] [--runs 1] [--out FILE]

For each workload it makes ``--runs`` untraced runs (end-to-end metrics,
reported as the median over runs with the runs' values listed) and one
traced run (per-layer metrics), each a separate ``perfbench/run.py``
process.  With ``--out`` it writes all of it, with the provenance of every
run, as one JSON file; ``perfbench/baseline/`` holds such files.
Untraced runs use seeds ``seed, seed + 1, ...``; the traced run uses ``seed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import HERE, OUT
from workloads import WORKLOADS


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if record["result"] != json.loads(done.stdout.strip().splitlines()[-1]):
        raise SystemExit(f"{workload}: result file does not match the printed result")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"settings": vars(args) | {"out": str(args.out)}, "workloads": {}}
    for name in WORKLOADS:
        untraced = [run_once(name, args.seed + i, args.seconds, 0) for i in range(args.runs)]
        traced = run_once(name, args.seed, args.seconds, 1)
        end_to_end = {}
        for metric, first in untraced[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][metric]["value"] for r in untraced]
            end_to_end[metric] = {"value": statistics.median(values), "unit": first["unit"],
                                  "runs": values}
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "per_layer": traced["result"]["metrics"],
            "runs": untraced + [traced],
        }
        print(f"{name}  (untraced: {args.runs} run(s) of {args.seconds:g} s, median; "
              f"jobs {untraced[0]['job_counts']})")
        for metric, m in end_to_end.items():
            print(f"  {metric:52s} {m['value']:14.6g} {m['unit']}")
        print(f"{name}  (traced run, per cycle; jobs {traced['job_counts']})")
        for metric, m in traced["result"]["metrics"].items():
            print(f"  {metric:52s} {m['value']:14.6g} {m['unit']}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
