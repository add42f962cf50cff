"""Check that a git revision and the working tree give the same outputs.

    python tools/same_outputs.py REV [--allow-ulps N]

Checks REV out with ``git worktree add --detach`` into a temporary
directory, then runs every job of ``perfbench.workloads.WORKLOADS`` with
``python -m photonflow ... --seed 3`` once from REV's ``src/`` and once from
the working tree's.  Each side runs each workload's jobs in order in its own
cycle directory, with relative ``--config`` and ``--out`` paths, so the
printed paths are the same on both sides.  Each side also runs the
``evolve`` jobs of FAILING, which fail on state files this script writes
itself: a longitudinal mode (the transversality gate), a heavy k = 0 mode
(the DC check, after the first snapshot is written), a NaN entry and a
header cut short (the state-file checks, before --out exists), the
``evolve`` jobs of NORMALIZED, which normalize a state file, and the jobs
of EXTRA, which cover steps, odd grids, non-unit c and hbar, CSV files
that cross write_csv's block edges, modes that share a lattice site and a
single slit source, which the workloads never take.

Without --allow-ulps the check is byte for byte: the exit code, stdout,
stderr and bytes of every file each job writes are compared, so a warning
that one side prints and the other does not is a difference; the names
that differ are printed, and the exit status is 1 on any difference, 0
otherwise.  With --allow-ulps N a difference may be roundoff: numbers in
stdout, stderr, JSON and CSV files are compared as numbers and the
contents of .phwf and .npz files as arrays read with numpy, while the
exit code, every other file and all text between the numbers must match
exactly (-0.0 equals 0.0, and NaN equals NaN).  A distance is measured in
ulps of the largest magnitude of its array, CSV column, JSON file or
stream (np.spacing of it), so a noise-level value may change by itself
entirely.  Each job's largest distance is printed, and the exit status is
0 only when every distance is at most N.  The worktree is removed before
the working tree's side runs.
"""

import argparse
import filecmp
import json
import math
import os
import re
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

# jobs beside the workloads' {kind: (command, config)}: a doubleslit and an
# evolve whose steps include a negative step and a zero step between two
# others (doubleslit dt = 0.8, -0.8, 0, -0.4; evolve dt = 0, 0.5, 0, -0.75,
# 1.25, each written to its own snapshot), an evolve and a doubleslit on
# odd grids, whose index ranges are lopsided (-(n-1)/2 .. (n-1)/2) and whose
# planes split unevenly between two workers, a boost-audit and a
# trajectories at c = 2 and hbar = 0.25, where the workloads run at c = hbar =
# 1, a boost-audit and a trajectories whose CSV rows and sample lists cross
# the edges of the pieces formatted at a time (fieldio._PIECE_NUMBERS =
# 1,024 numbers: 256 rows of interference.csv, 113 of trajectories.csv):
# 5,000 samples (20 pieces of interference.csv, 5 of each audits.json
# sample list, 4 pieces and a short one of planewaves._FLOW_POINTS = 1,024
# audit samples, and npz members of 40,000 and 120,000 numbers, which
# write_npz copies from the spill 1,024 numbers at a time), and 3
# trajectories of 6,285 knots (56 pieces each), a trajectories of 1,500
# points, whose start check and RK4 steps evaluate the flow in a piece of
# 1,024 points and one of 476 (each workload's 4,096-point line table is
# exactly 4 pieces), an
# evolve with normalize and one without on a state whose right-handed k and
# left-handed -k share a lattice site (the order in which
# planewaves.StatePlanes adds modes, and its divisor), and a doubleslit of
# one source
NON_UNIT = {"c": 2.0, "hbar": 0.25}
SHARED_SITE = {"components": [
    {"k": [0.0, 0.0, 1.0], "I": 1.0, "phase": 0.3},
    {"k": [0.0, 0.0, -1.0], "I": 0.7, "handedness": "left", "phase": -1.1},
    {"k": [1.0, -2.0, 3.0], "I": 0.4, "handedness": "left"}]}
EXTRA = {
    "doubleslit-steps": ("doubleslit", {"grid": {"n": 32}, "doubleslit": {
        "bundle_width": 1, "times": [0.8, 0.0, 0.0, -0.4]}}),
    "evolve-steps": ("evolve", {"grid": {"n": 17}, "evolve": {
        "normalize": True, "times": [0.0, 0.5, 0.5, -0.25, 1.0]}}),
    "evolve-odd-n": ("evolve", {"grid": {"n": 33}, "evolve": {"normalize": True}}),
    "doubleslit-odd-n": ("doubleslit", {"grid": {"n": 35}, "doubleslit": {
        "bundle_width": 2}}),
    "boost-audit-units": ("boost-audit", {"units": NON_UNIT, "audit": {"samples": 64}}),
    "trajectories-units": ("trajectories", {"units": NON_UNIT}),
    "boost-audit-blocks": ("boost-audit", {"audit": {"samples": 5000}}),
    "trajectories-blocks": ("trajectories", {"trajectories": {"count": 3, "step": 1e-3}}),
    "trajectories-pieces": ("trajectories", {"trajectories": {"count": 1500, "step": 0.5}}),
    "evolve-shared-site": ("evolve", {"grid": {"n": 16}, "state": SHARED_SITE, "evolve": {
        "times": [0.0, 0.7]}}),
    "evolve-shared-site-normalized": ("evolve", {"grid": {"n": 16}, "state": SHARED_SITE,
                                                 "evolve": {"normalize": True,
                                                            "times": [0.0, 0.7]}}),
    "doubleslit-one-source": ("doubleslit", {"grid": {"n": 32}, "doubleslit": {
        "sources": 1, "bundle_width": 1}}),
}


def state_file_bytes(modes: dict, n: int = 4) -> bytes:
    """A PHWF1 momentum file (see photonflow.fieldio) at time 0 holding the nonzero
    modes {(ix, iy, iz): (Fx, Fy, Fz)}, packed by hand."""
    payload = np.zeros((n, n, n, 3), dtype="<c16")  # [iz, iy, ix, component]: x fastest
    for (ix, iy, iz), value in modes.items():
        payload[iz, iy, ix] = value
    header = struct.pack("<5sIdddBd", b"PHWF1", n, 2.0 * math.pi, 1.0, 1.0, 1, 0.0)
    return header + payload.tobytes()


# evolve jobs that fail, each run over the times [0, 1], and the bytes of their
# state files: n = 4 momentum states, and a header cut short after its magic
FAILING = {
    "evolve-longitudinal": state_file_bytes({(0, 0, 1): (1.0, 1j, 0.5)}),
    "evolve-dc-heavy": state_file_bytes({(0, 0, 1): (1.0, 1j, 0.0),
                                         (0, 0, 0): (2e-3, 0.0, 0.0)}),
    "evolve-nan": state_file_bytes({(0, 0, 1): (1.0, 1j, 0.0),
                                    (1, 2, 3): (math.nan, 0.0, 0.0)}),
    "evolve-bad-header": b"PHWF1" + bytes(16),
}


def transverse_state_bytes(n: int = 8, seed: int = 5) -> bytes:
    """A PHWF1 momentum file at time 0 (L = 2 pi, c = 1.3, hbar = 0.7) whose every
    mode k != 0 holds the transverse k x G of a seeded random G."""
    m = np.fft.fftfreq(n, 1.0 / n)  # signed indices, as photonflow's kgrid orders them
    mz, my, mx = np.meshgrid(m, m, m, indexing="ij")  # [iz, iy, ix]: x fastest
    g = np.random.default_rng(seed).standard_normal((n, n, n, 3, 2)).view(complex)[..., 0]
    payload = np.cross(np.stack([mx, my, mz], axis=-1), g).astype("<c16")
    header = struct.pack("<5sIdddBd", b"PHWF1", n, 2.0 * math.pi, 1.3, 0.7, 1, 0.0)
    return header + payload.tobytes()


# evolve jobs that normalize a state file, each run over the times [0, 1]: a
# state of many modes (its photon number's pass and the divisor its planes
# are read through) and FAILING's NaN entry (named before the DC gate)
NORMALIZED = {
    "evolve-file-normalized": transverse_state_bytes(),
    "evolve-nan-normalized": FAILING["evolve-nan"],
}


def run_job(cycle: Path, env: dict, kind: str, command: str, config: dict) -> tuple:
    """(exit code, stdout, stderr, {output file: path}) of one job run in ``cycle``."""
    (cycle / f"{kind}.json").write_text(json.dumps(config))
    run = subprocess.run([sys.executable, "-m", "photonflow", command, "--config",
                          f"{kind}.json", "--out", kind, "--seed", SEED],
                         cwd=cycle, env=env, capture_output=True)
    files = {str(path.relative_to(cycle)): path
             for path in sorted((cycle / kind).rglob("*")) if path.is_file()}
    return run.returncode, run.stdout, run.stderr, files


def run_side(src: Path, top: Path) -> dict:
    """{job kind: (exit code, stdout, stderr, {output file: path})} of the jobs run
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
    for normalize, jobs in ((False, FAILING), (True, NORMALIZED)):
        for kind, content in jobs.items():
            (cycle / f"{kind}.phwf").write_bytes(content)
            results[kind] = run_job(cycle, env, kind, "evolve",
                                    {"state": {"file": f"{kind}.phwf"},
                                     "evolve": {"times": [0.0, 1.0], "normalize": normalize}})
    return results


def differences(old: tuple, new: tuple) -> list:
    """The names of what differs between two results of one job, byte for byte."""
    names = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new) if a != b]
    return names + sorted(name for name in set(old[3]) | set(new[3])
                          if name not in old[3] or name not in new[3]
                          or not filecmp.cmp(old[3][name], new[3][name], shallow=False))


# --- distances in ulps ---------------------------------------------------------

# a number as Python and numpy print it, not inside a name such as snapshot_01
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|inf|nan)(?!\w|\.\w)")

# numbers of a .phwf payload compared at a time
_CHUNK = 2 ** 20


class TextDiffers(Exception):
    """Two outputs differ beyond their numbers."""


def spread(old, new) -> tuple:
    """(largest |old - new|, largest finite magnitude of either) of two float
    arrays of one shape; equal entries (-0.0 and 0.0, or two NaNs) differ by 0,
    and any other pair that is not finite by inf."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    if old.shape != new.shape:
        raise TextDiffers(f"shapes {old.shape} and {new.shape}")
    same = (old == new) | (np.isnan(old) & np.isnan(new))
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(old - new)[~same]
    gap = np.where(np.isfinite(gap), gap, np.inf)
    magnitude = np.abs(np.concatenate([old.ravel(), new.ravel()]))
    return gap.max(initial=0.0), magnitude[np.isfinite(magnitude)].max(initial=0.0)


def ulps(spreads) -> float:
    """The largest distance of (gap, magnitude) spreads of one array, in ulps of
    its largest magnitude."""
    gap = magnitude = 0.0
    for part_gap, part_magnitude in spreads:
        gap, magnitude = max(gap, part_gap), max(magnitude, part_magnitude)
    return 0.0 if gap == 0.0 else float(gap / np.spacing(magnitude))


def text_ulps(old: str, new: str) -> float:
    """Distance of two texts whose numbers form one stream."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        raise TextDiffers("text")
    return ulps([spread(*(np.array(NUMBER.findall(t), dtype=float) for t in (old, new)))])


def _json_shape(value, numbers):
    """``value`` with each number (not a bool) replaced by "#" and appended to ``numbers``."""
    if isinstance(value, list):
        return [_json_shape(v, numbers) for v in value]
    if isinstance(value, dict):
        return {key: _json_shape(v, numbers) for key, v in value.items()}
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        numbers.append(float(value))
        return "#"
    return value


def json_ulps(old: Path, new: Path) -> float:
    numbers = [], []
    shapes = [_json_shape(json.loads(path.read_text()), found)
              for path, found in zip((old, new), numbers)]
    if shapes[0] != shapes[1]:
        raise TextDiffers("JSON structure")
    return ulps([spread(*numbers)])


def csv_ulps(old: Path, new: Path) -> float:
    """Largest distance over the columns, each in ulps of its own largest magnitude."""
    headers = [path.read_text().split("\n", 1)[0] for path in (old, new)]
    if headers[0] != headers[1]:
        raise TextDiffers("CSV header")
    tables = [np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2) for path in (old, new)]
    if tables[0].shape != tables[1].shape:
        raise TextDiffers("CSV rows")
    return max((ulps([spread(a, b)]) for a, b in zip(tables[0].T, tables[1].T)), default=0.0)


_PHWF_HEADER = struct.Struct("<5sIdddBd")


def phwf_ulps(old: Path, new: Path) -> float:
    """Largest distance of the header's floats (L, c, hbar, time) and of the
    payload's floats, each an array; magic, n and tag must match."""
    heads = []
    for path in (old, new):
        with open(path, "rb") as fh:
            heads.append(_PHWF_HEADER.unpack(fh.read(_PHWF_HEADER.size)))
    (magic, n, *floats, tag, time), (magic_b, n_b, *floats_b, tag_b, time_b) = heads
    if (magic, n, tag) != (magic_b, n_b, tag_b):
        raise TextDiffers(".phwf header")
    payloads = [np.memmap(path, dtype="<f8", mode="r", offset=_PHWF_HEADER.size)
                for path in (old, new)]
    chunks = range(0, max(payloads[0].size, payloads[1].size) or 1, _CHUNK)
    return max(ulps([spread(floats + [time], floats_b + [time_b])]),
               ulps(spread(payloads[0][i:i + _CHUNK], payloads[1][i:i + _CHUNK])
                    for i in chunks))


def npz_ulps(old: Path, new: Path) -> float:
    with np.load(old) as a, np.load(new) as b:
        if sorted(a.files) != sorted(b.files):
            raise TextDiffers(".npz members")
        return max((ulps([spread(a[name], b[name])]) for name in a.files), default=0.0)


FILE_ULPS = {".json": json_ulps, ".csv": csv_ulps, ".phwf": phwf_ulps, ".npz": npz_ulps}


def distances(old: tuple, new: tuple) -> dict:
    """{name: distance in ulps} of what differs byte for byte between two
    results of one job; inf for a difference beyond the numbers."""
    found = {}
    for name in differences(old, new):
        compare = FILE_ULPS.get(Path(name).suffix)
        found[name] = math.inf  # the exit code, a file on one side only, any other file
        try:
            if name in ("stdout", "stderr"):
                i = 1 if name == "stdout" else 2
                found[name] = text_ulps(old[i].decode(), new[i].decode())
            elif compare is not None and name in old[3] and name in new[3]:
                found[name] = compare(old[3][name], new[3][name])
        except (TextDiffers, ValueError, struct.error):
            pass
    return found


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rev", help="the git revision to compare against")
    parser.add_argument("--allow-ulps", type=float, metavar="N",
                        help="accept numbers within N ulps (see the module docstring)")
    args = parser.parse_args(argv[1:])
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), args.rev],
                       cwd=ROOT, check=True)
        try:
            old = run_side(tree / "src", Path(tmp) / "old")
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT,
                           check=True)
        new = run_side(ROOT / "src", Path(tmp) / "new")
        if args.allow_ulps is not None:
            return report_ulps(old, new, args.rev, args.allow_ulps)
        differing = 0
        for kind in old:
            names = differences(old[kind], new[kind])
            differing += bool(names)
            verdict = "differs: " + ", ".join(names) if names else (
                f"exit code {new[kind][0]}, stdout, stderr and {len(new[kind][3])} file(s) "
                "identical")
            print(f"{kind}: {verdict}")
    print(f"{differing} of {len(old)} jobs differ from {args.rev}" if differing
          else f"all {len(old)} jobs identical to {args.rev}")
    return 1 if differing else 0


def report_ulps(old: dict, new: dict, rev: str, allowed: float) -> int:
    """Print each job's largest distance from ``rev``; 0 if all are within ``allowed``."""
    largest, differing = 0.0, 0
    for kind in old:
        found = distances(old[kind], new[kind])
        worst = max(found.values(), default=0.0)
        largest, differing = max(largest, worst), differing + bool(found)
        where = ", ".join(f"{name} {d:g}" for name, d in found.items())
        print(f"{kind}: largest distance {worst:g} ulps" + (f" ({where})" if where else ""))
    within = largest <= allowed
    print(f"{differing} of {len(old)} jobs differ from {rev}; largest distance {largest:g} "
          f"ulps, {'within' if within else 'beyond'} {allowed:g}")
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
