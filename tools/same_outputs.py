"""Check that a git revision and the working tree give the same outputs.

    python tools/same_outputs.py REV

Checks REV out with ``git worktree add --detach`` into a temporary
directory, then runs every job of ``perfbench.workloads.WORKLOADS`` with
``python -m photonflow ... --seed 3`` once from REV's ``src/`` and once from
the working tree's.  Each side runs each workload's jobs in order in its own
cycle directory, with relative ``--config`` and ``--out`` paths, so the
printed paths are the same on both sides.  Each side also runs the
``evolve`` jobs of FAILING, which fail on state files this script writes
itself: a longitudinal mode (the transversality gate), a heavy k = 0 mode
(the DC check, after the first snapshot is written) and a NaN entry (the
state-file check, before --out exists), and the jobs of EXTRA, which cover
steps the workloads never take.  The exit code, stdout, stderr
and sha256 of every file each job writes are compared, so a warning that
one side prints and the other does not is a difference; the names that
differ are printed, and the exit status is 1 on any difference, 0
otherwise.  The worktree is removed before the working tree's side runs.
"""

import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS  # noqa: E402

SEED = "3"

# evolve jobs that fail: the nonzero modes {(ix, iy, iz): (Fx, Fy, Fz)} of an
# n = 4 momentum state file at time 0, each run over the times [0, 1]
FAILING = {
    "evolve-longitudinal": {(0, 0, 1): (1.0, 1j, 0.5)},
    "evolve-dc-heavy": {(0, 0, 1): (1.0, 1j, 0.0), (0, 0, 0): (2e-3, 0.0, 0.0)},
    "evolve-nan": {(0, 0, 1): (1.0, 1j, 0.0), (1, 2, 3): (math.nan, 0.0, 0.0)},
}

# jobs beside the workloads' {kind: (command, config)}: a doubleslit and an
# evolve whose steps include a negative step and a zero step between two
# others (doubleslit dt = 0.8, -0.8, 0, -0.4; evolve dt = 0, 0.5, 0, -0.75,
# 1.25, each written to its own snapshot), and an evolve and a doubleslit on
# odd grids, whose index ranges are lopsided (-(n-1)/2 .. (n-1)/2) and whose
# planes split unevenly between two workers
EXTRA = {
    "doubleslit-steps": ("doubleslit", {"grid": {"n": 32}, "doubleslit": {
        "bundle_width": 1, "times": [0.8, 0.0, 0.0, -0.4]}}),
    "evolve-steps": ("evolve", {"grid": {"n": 17}, "evolve": {
        "normalize": True, "times": [0.0, 0.5, 0.5, -0.25, 1.0]}}),
    "evolve-odd-n": ("evolve", {"grid": {"n": 33}, "evolve": {"normalize": True}}),
    "doubleslit-odd-n": ("doubleslit", {"grid": {"n": 35}, "doubleslit": {
        "bundle_width": 2}}),
}


def write_state_file(path: Path, modes: dict, n: int = 4) -> None:
    """A PHWF1 momentum file (see photonflow.fieldio) holding ``modes``, packed by hand."""
    payload = np.zeros((n, n, n, 3), dtype="<c16")  # [iz, iy, ix, component]: x fastest
    for (ix, iy, iz), value in modes.items():
        payload[iz, iy, ix] = value
    header = struct.pack("<5sIdddBd", b"PHWF1", n, 2.0 * math.pi, 1.0, 1.0, 1, 0.0)
    path.write_bytes(header + payload.tobytes())


def run_job(cycle: Path, env: dict, kind: str, command: str, config: dict) -> tuple:
    """(exit code, stdout, stderr, {output file: sha256}) of one job run in ``cycle``."""
    (cycle / f"{kind}.json").write_text(json.dumps(config))
    run = subprocess.run([sys.executable, "-m", "photonflow", command, "--config",
                          f"{kind}.json", "--out", kind, "--seed", SEED],
                         cwd=cycle, env=env, capture_output=True)
    files = {str(path.relative_to(cycle)): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted((cycle / kind).rglob("*")) if path.is_file()}
    return run.returncode, run.stdout, run.stderr, files


def run_side(src: Path, top: Path) -> dict:
    """{job kind: (exit code, stdout, stderr, {output file: sha256})} of the jobs run
    from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    imported = subprocess.run(
        [sys.executable, "-c", "import photonflow; print(photonflow.__file__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(imported).is_relative_to(src):
        raise SystemExit(f"photonflow imports from {imported}, not from {src}")
    results = {}
    for workload in WORKLOADS.values():
        cycle = top / workload.name
        cycle.mkdir(parents=True)
        for job in workload.jobs:
            results[job.kind] = run_job(cycle, env, job.kind, job.command,
                                        job.config(Path(".")))
    cycle = top / "extra"
    cycle.mkdir(parents=True)
    for kind, (command, config) in EXTRA.items():
        results[kind] = run_job(cycle, env, kind, command, config)
    cycle = top / "failing"
    cycle.mkdir(parents=True)
    for kind, modes in FAILING.items():
        write_state_file(cycle / f"{kind}.phwf", modes)
        results[kind] = run_job(cycle, env, kind, "evolve",
                                {"state": {"file": f"{kind}.phwf"},
                                 "evolve": {"times": [0.0, 1.0]}})
    return results


def differences(old: tuple, new: tuple) -> list:
    """The names of what differs between two results of one job."""
    names = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
    return names + sorted(name for name in set(old[3]) | set(new[3])
                          if old[3].get(name) != new[3].get(name))


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: python tools/same_outputs.py REV")
    rev = argv[1]
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), rev],
                       cwd=ROOT, check=True)
        try:
            old = run_side(tree / "src", Path(tmp) / "old")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                           check=True)
        new = run_side(ROOT / "src", Path(tmp) / "new")
    differing = 0
    for kind in old:
        names = differences(old[kind], new[kind])
        differing += bool(names)
        verdict = "differs: " + ", ".join(names) if names else (
            f"exit code {new[kind][0]}, stdout, stderr and {len(new[kind][3])} file(s) identical")
        print(f"{kind}: {verdict}")
    print(f"{differing} of {len(old)} jobs differ from {rev}" if differing
          else f"all {len(old)} jobs identical to {rev}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
