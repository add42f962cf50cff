#!/usr/bin/env python3
"""Check the benchmark itself: outputs that are wrong must count as failed.

Run from the repository root::

    python3 perfbench/selfcheck.py

It runs one untraced cycle of every workload and requires every job to
verify.  It then corrupts those outputs one way at a time (a perturbed
invariant, a truncated snapshot, a changed verdict, NaN where a tolerance
gate reads) and requires the job's check to flag each, and the end-to-end
metrics to count the job as failed.  It also requires BENCHMARK.json to
name exactly the workloads and metrics the code reports, and the benchmark
to refuse to run (exit code not 0, no result line) in a directory that
holds only BENCHMARK.json and the benchmark's files.  Takes under a minute.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from layers import PER_LAYER
from run import END_TO_END, HERE, OUT, ROOT, _job_env, end_to_end, run_job, verify
from workloads import WORKLOADS


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_line(path: Path, index: int, edit) -> None:
    lines = path.read_text().splitlines()
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")


def _set(keys, value):
    def edit(data):
        for key in keys[:-1]:
            data = data[key]
        data[keys[-1]] = value(data[keys[-1]]) if callable(value) else value
    return edit


def _truncate(path: Path) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(path.stat().st_size - 48)


def _bump_z(line: str) -> str:
    cols = line.split(",")
    cols[4] = repr(float(cols[4]) + 1e-6)
    return ",".join(cols)


# (workload, job kind, description, corruption applied to the cycle directory)
CORRUPTIONS = (
    ("grid-evolve", "evolve", "energy off by 1e-6",
     lambda c: _edit_json(c / "evolve/diagnostics.json",
                          _set(["snapshots", 1, "energy"], lambda e: e * (1 + 1e-6))),),
    ("grid-evolve", "evolve", "transversality NaN",
     lambda c: _edit_json(c / "evolve/diagnostics.json",
                          _set(["snapshots", 0, "transversality_residual"], math.nan))),
    ("grid-evolve", "evolve-resume", "truncated snapshot",
     lambda c: _truncate(c / "evolve-resume/snapshot_01.phwf")),
    ("grid-evolve", "evolve-resume", "photon number 1.001",
     lambda c: _edit_json(c / "evolve-resume/diagnostics.json",
                          _set(["snapshots", 0, "photon_number"], 1.001))),
    ("guidance", "trajectories-phi_based", "one node hit",
     lambda c: _edit_json(c / "trajectories-phi_based/summary.json", _set(["node_hits"], 1))),
    ("guidance", "trajectories-phi_based", "max speed NaN",
     lambda c: _edit_json(c / "trajectories-phi_based/summary.json",
                          _set(["max_speed_over_c"], math.nan))),
    ("guidance", "trajectories-weber_based", "frame mismatch 0.4999",
     lambda c: _edit_json(c / "trajectories-weber_based/summary.json",
                          _set(["frame_consistency", 1, "mismatch_over_c"], 0.4999))),
    ("guidance", "trajectories-weber_based", "trajectory moved by 1e-6",
     lambda c: _edit_line(c / "trajectories-weber_based/trajectories.csv", 40, _bump_z)),
    ("guidance", "trajectories-phi_based", "trajectory position NaN",
     lambda c: _edit_line(c / "trajectories-phi_based/trajectories.csv", 7,
                          lambda line: ",".join(line.split(",")[:4] + ["nan"]
                                                + line.split(",")[5:]))),
    ("guidance", "boost-audit", "x-boost phi verdict flipped",
     lambda c: _edit_json(c / "boost-audit/audits.json",
                          _set([6, "verdict"], "four_vector_consistent"))),
    ("guidance", "boost-audit", "mismatch off in the 5th digit",
     lambda c: _edit_json(c / "boost-audit/audits.json",
                          _set([1, "max_mismatch"], lambda m: m + 1e-5))),
    ("doubleslit", "doubleslit", "visibility off by 1e-6",
     lambda c: _edit_json(c / "doubleslit/summary.json",
                          _set(["visibility"], lambda v: v * (1 + 1e-6)))),
    ("doubleslit", "doubleslit", "fringe spacing 2 pi",
     lambda c: _edit_json(c / "doubleslit/summary.json",
                          _set(["fringe_spacing"], 2 * math.pi))),
    ("doubleslit", "doubleslit", "missing frame row",
     lambda c: _edit_line(c / "doubleslit/frames.csv", 5, lambda line: "")),
)


def check_outputs(work: Path) -> list:
    problems = []
    env = _job_env()
    for name, workload in WORKLOADS.items():
        cycle = work / name
        cycle.mkdir()
        records = [run_job(job, cycle, 1, env, None, 120.0) for job in workload.jobs]
        clean = [e for r in records for e in r["errors"]]
        if clean:
            problems.append(f"{name}: clean outputs rejected: {clean}")
            continue
        print(f"ok    {name}: every job verifies")
        backup = work / f"{name}.clean"
        shutil.copytree(cycle, backup)
        jobs = {job.kind: job for job in workload.jobs}
        for workload_name, kind, what, corrupt in CORRUPTIONS:
            if workload_name != name:
                continue
            corrupt(cycle)
            errors = verify(jobs[kind], cycle)
            record = dict(records[0], errors=errors)
            ratio = end_to_end([record], [1.0])["verified_job_ratio"]["value"]
            if errors and ratio == 0.0:
                print(f"ok    {name}/{kind}: {what} -> failed ({errors[0][:90]})")
            else:
                problems.append(f"{name}/{kind}: corruption '{what}' passed verification")
            shutil.rmtree(cycle)
            shutil.copytree(backup, cycle)
    # a job whose input is missing exits non-zero and is counted failed
    cycle = work / "no-input"
    cycle.mkdir()
    record = run_job(WORKLOADS["grid-evolve"].jobs[1], cycle, 1, env, None, 120.0)
    if record["errors"]:
        print(f"ok    grid-evolve/evolve-resume without its snapshot -> failed")
    else:
        problems.append("evolve-resume without a snapshot was not counted failed")
    return problems


def check_manifest() -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [(w["name"], w["why"]) for w in spec["workloads"]] != [
            (w.name, w.why) for w in WORKLOADS.values()]:
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(END_TO_END):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(PER_LAYER):
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER")
    if not problems:
        print("ok    BENCHMARK.json names the workloads and metrics the code reports")
    return problems


def check_refuses_without_program(work: Path) -> list:
    bare = work / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    spec = json.loads((bare / "BENCHMARK.json").read_text())
    done = subprocess.run(spec["command"] + ["--workload", "doubleslit", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if done.returncode != 0 and '"metrics"' not in done.stdout:
        print(f"ok    without src/ the benchmark exits {done.returncode} with no result")
        return []
    return [f"without src/ the benchmark exited {done.returncode}: {done.stdout[-200:]}"]


def main() -> int:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=OUT))
    try:
        problems = check_manifest() + check_refuses_without_program(work) + check_outputs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"FAIL  {problem}")
    print("selfcheck passed" if not problems else f"selfcheck failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
