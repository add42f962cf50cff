"""What a result was measured on, so that only like results are compared.

Two results are comparable when their machine fields (CPU model, CPU
count, Python, numpy and its BLAS) and their workload settings match.
The code measured is named by the git commit when the checkout is a git
repository and, always, by a digest of the files under ``src/``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*.py") if "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _numpy() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def provenance(root: Path, src: Path, workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    return {
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "python": platform.python_version(),
        **_numpy(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
