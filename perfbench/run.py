#!/usr/bin/env python3
"""photonflow benchmark: one CLI process per job, in a closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload grid-evolve --seed 1 --seconds 30 --trace 0

One benchmark process runs the workload's cycle of ``python -m photonflow``
jobs one at a time, with no warm cache between jobs (each invocation starts
cold, as it does for a user), for about ``--seconds``; a cycle is never
cut short.  Each job's output is checked against closed forms (see
workloads.py).  Before the loop the run times fresh interpreters that
import ``photonflow.cli`` and build its parser (``setup_s``), then runs the
cycle's first job once as an unmeasured (but checked) warm-up.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced cycles with cycles whose jobs run under tracer.py, and reports
the per-layer metrics (layers.py) plus the tracing overhead.  The last line
of stdout is the result as JSON; the lines before it print each metric by
name and unit.  A result file with the run's provenance is written to
``perfbench/out/``.  The program is imported from ``src/`` of the checkout
the benchmark sits in; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from layers import LayerTotals
from provenance import provenance
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 7          # plus one discarded probe that compiles bytecode
JOB_LIMIT_S = 90.0        # a job this slow is killed and counted as failed
RUN_LIMIT_S = 165.0       # the whole run ends within 180 s
SETUP_CODE = "import photonflow.cli as c; c.build_parser(); print(c.__file__)"

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("job_cpu_s_p50", "s"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
    ("verified_job_ratio", "1"),
)


class BenchmarkError(Exception):
    """The benchmark cannot run here (for example, no program to run)."""


def spawn(argv, cwd: Path, env, log: Path, limit_s: float):
    """Run argv to completion; return (wall s, cpu s, max RSS KiB, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(limit_s, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def _job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_times(work: Path, env) -> list:
    """Wall times of fresh interpreters importing photonflow.cli and building its parser."""
    times = []
    for i in range(SETUP_PROBES + 1):
        log = work / f"setup{i}.log"
        wall, _, _, code = spawn([sys.executable, "-c", SETUP_CODE], work, env, log, 60.0)
        imported = log.read_text().strip()
        if code != 0 or not imported.startswith(str(SRC)):
            raise BenchmarkError(f"photonflow.cli does not import from {SRC}: {imported[-300:]}")
        if i:
            times.append(wall)
    return times


def _tail(path: Path) -> str:
    return path.read_text(errors="replace").strip()[-300:] if path.exists() else ""


def verify(job, cycle: Path) -> list:
    """The job's closed-form check; output it cannot parse is a mismatch too."""
    try:
        return job.verify(cycle)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{job.kind}: unreadable output: {exc!r}"]


def run_job(job, cycle: Path, seed: int, env, span_file, limit_s: float) -> dict:
    config = cycle / f"{job.kind}.json"
    config.write_text(json.dumps(job.config(cycle)))
    args = [job.command, "--config", str(config), "--out", str(cycle / job.kind),
            "--seed", str(seed)]
    if span_file is None:
        argv = [sys.executable, "-m", "photonflow", *args]
    else:
        argv = [sys.executable, str(HERE / "tracer.py"), str(span_file), job.kind,
                repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--", *args]
    log = cycle / f"{job.kind}.log"
    wall, cpu, rss_kib, code = spawn(argv, cycle, env, log, limit_s)
    errors = [f"{job.kind}: exit code {code}: {_tail(log)}"] if code else verify(job, cycle)
    return {"kind": job.kind, "traced": span_file is not None, "warmup": False,
            "wall_s": wall, "cpu_s": cpu, "rss_kib": rss_kib, "errors": errors}


def run_cycles(workload, seed: int, seconds: float, trace: bool, work: Path, env,
               deadline: float, layers: LayerTotals) -> list:
    """Closed loop over whole cycles; in trace mode odd cycles are traced.

    A new cycle starts only if at least half of it (judged by the last
    cycle) fits in the time left, so a run lasts about ``seconds``.
    """
    jobs = []
    start = time.perf_counter()
    last_cycle_s = 0.0
    index = 0
    while True:
        traced = trace and index % 2 == 1
        now = time.perf_counter()
        enough = index >= (2 if trace else 1)
        if (enough and now - start + 0.5 * last_cycle_s >= seconds) or now >= deadline:
            break
        cycle = work / f"cycle{index:04d}"
        cycle.mkdir()
        for job in workload.jobs:
            span_file = cycle / f"{job.kind}.spans.json" if traced else None
            record = run_job(job, cycle, seed, env, span_file,
                             min(JOB_LIMIT_S, deadline - time.perf_counter()))
            jobs.append(record)
            if span_file is not None and span_file.exists():
                layers.add(span_file)
        shutil.rmtree(cycle)
        last_cycle_s = time.perf_counter() - now
        index += 1
    return jobs


def kind_median(jobs: list, key: str) -> float:
    """Median over the jobs of each kind, averaged over the kinds of the cycle.

    A cycle of unlike jobs (two ~3.5 s trajectories jobs and a ~1.2 s
    boost-audit) makes the median of all jobs a low order statistic of one
    kind, which jumps from run to run; each kind's own median does not.
    """
    by_kind = {}
    for j in jobs:
        by_kind.setdefault(j["kind"], []).append(j[key])
    return statistics.mean(statistics.median(v) for v in by_kind.values())


def end_to_end(untraced: list, setup: list) -> dict:
    verified = [j for j in untraced if not j["errors"]]
    values = {
        # the closed loop has no think time: wall time is the jobs' own
        "jobs_per_s": len(verified) / sum(j["wall_s"] for j in untraced),
        "job_s_p50": kind_median(untraced, "wall_s"),
        "job_cpu_s_p50": kind_median(untraced, "cpu_s"),
        "peak_rss_mib": max(j["rss_kib"] for j in untraced) / 1024.0,
        "setup_s": statistics.median(setup),
        "verified_job_ratio": len(verified) / len(untraced),
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END}


def trace_overhead(jobs: list) -> float:
    """Traced over untraced job wall time (sum of per-kind medians), minus 1."""
    def total(traced):
        kinds = {}
        for j in jobs:
            if j["traced"] is traced and not j["warmup"]:
                kinds.setdefault(j["kind"], []).append(j["wall_s"])
        return sum(statistics.median(v) for v in kinds.values())
    return total(True) / total(False) - 1.0


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "photonflow" / "cli.py").is_file():
        raise BenchmarkError(f"no photonflow package under {SRC}")
    OUT.mkdir(exist_ok=True)
    env = _job_env()
    work = Path(tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=OUT))
    try:
        setup = setup_times(work, env)
        # On a shared 2-core VM the first large job of a run measured about
        # 10 % slower than the ones after it; a job a user repeats is not.
        warmup = work / "warmup"
        warmup.mkdir()
        first = dict(run_job(workload.jobs[0], warmup, seed, env, None, JOB_LIMIT_S),
                     warmup=True)
        shutil.rmtree(warmup)
        layers = LayerTotals()
        jobs = [first] + run_cycles(workload, seed, seconds, trace, work, env, deadline, layers)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [j for j in jobs if j["errors"]]
    untraced = [j for j in jobs if not (j["traced"] or j["warmup"])]
    if trace:
        cycles = sum(j["traced"] for j in jobs) // len(workload.jobs)
        metrics = layers.metrics(max(cycles, 1), trace_overhead(jobs))
    else:
        metrics = end_to_end(untraced, setup)
    result = {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
              "metrics": metrics}
    counts = {}
    for j in jobs:
        key = j["kind"] + (" (traced)" if j["traced"] else "") + (" (warm-up)" if j["warmup"] else "")
        counts[key] = counts.get(key, 0) + 1
    record = {
        "result": result,
        "provenance": provenance(ROOT, SRC, workload.name, seed, seconds, trace),
        "job_counts": counts,
        "samples": {"job_s_p50": len(untraced), "setup_s": len(setup),
                    "traced_jobs": sum(j["traced"] for j in jobs)},
        "jobs": [{k: j[k] for k in ("kind", "traced", "warmup", "wall_s", "cpu_s", "rss_kib")}
                 for j in jobs],
        "setup_s": setup,
        "errors": [e for j in failed for e in j["errors"]][:20],
    }
    (OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    result = record["result"]
    for error in record["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{result['attempted']} jobs, {result['failed']} failed; {record['job_counts']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:52s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
