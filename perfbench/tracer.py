"""Run one photonflow CLI job with a span around every public function.

Usage (run.py starts it in place of ``python -m photonflow``)::

    python3 perfbench/tracer.py SPAN_FILE JOB_ID SPAWN_TIME -- SUBCOMMAND [ARGS...]

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process.  Every public function of the layer modules is wrapped, and
every reference to it in a ``photonflow.*`` namespace (and in module-level
dicts such as ``PRESETS``) is rebound to the wrapper, so calls made through
``from .x import f`` names become nested spans too.  Spans are kept in
memory and written to SPAN_FILE as JSON when the job ends, with the job id,
the import time and per-span extras (points evaluated, bytes written, ...).
The program itself is not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time

import numpy as np

LAYERS = ("cli", "planewaves", "lorentz", "bohm", "fields", "spectral", "photon", "fieldio")


def _points(args, kwargs):
    return math.prod(np.shape(args[1] if len(args) > 1 else kwargs["x"])[:-1])


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Extra figures recorded on a span, computed from arguments and results.
EXTRAS = {
    "planewaves.analytic_probability_flow": lambda a, k, r: {"points": _points(a, k)},
    "planewaves.analytic_weber_flow": lambda a, k, r: {"points": _points(a, k)},
    "planewaves.sample_to_grid": lambda a, k, r: {
        "point_components": a[1].n_per_axis ** 3 * len(a[0].components)},
    "fieldio.write_weber": _file_bytes,
    "fieldio.read_weber": _file_bytes,
    "spectral.kgrid": lambda a, k, r: {"result_bytes": sum(
        v.nbytes for v in vars(r).values() if hasattr(v, "nbytes"))},
    "bohm.integrate_trajectory": lambda a, k, r: {
        "steps": len(r.times) - 1, "node_hit": bool(r.node_hit)},
}

# Private helpers that are counted, not timed; the count is keyed by the
# innermost open span, so "bohm._velocity_masked@bohm.integrate_trajectory"
# is the number of guidance evaluations made inside integrate_trajectory.
COUNTED = ("bohm._velocity_masked",)


class Recorder:
    """Spans of one job: [name, start, end, parent index, extras or None]."""

    def __init__(self):
        self.spans = []
        self.open = []          # indices of the spans still running
        self.counts = {}

    def span(self, name, fn):
        spans, open_ = self.spans, self.open
        extra = EXTRAS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_[-1] if open_ else -1, None])
            open_.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index][1:3] = start, end
            if extra is not None:
                spans[index][4] = extra(args, kwargs, result)
            return result
        return wrapper

    def counter(self, name, fn):
        spans, open_, counts = self.spans, self.open, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = f"{name}@{spans[open_[-1]][0] if open_ else ''}"
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper


def _is_public_function(name, obj, module):
    return (not name.startswith("_") and inspect.isfunction(inspect.unwrap(obj))
            and obj.__module__ == module.__name__)


def install(recorder: Recorder) -> None:
    """Wrap the layers' public functions and rebind every reference to them."""
    import photonflow.cli  # noqa: F401  (imports every layer module)

    modules = [m for name, m in sys.modules.items()
               if name == "photonflow" or name.startswith("photonflow.")]
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"photonflow.{layer}"]
        for name, obj in vars(module).items():
            if _is_public_function(name, obj, module):
                wrapped[id(obj)] = (obj, recorder.span(f"{layer}.{name}", obj))
        for qualified in COUNTED:
            owner, name = qualified.split(".")
            if owner == layer:
                obj = getattr(module, name)
                wrapped[id(obj)] = (obj, recorder.counter(qualified, obj))

    def replacement(obj):
        hit = wrapped.get(id(obj))
        return hit[1] if hit is not None and hit[0] is obj else None

    for module in modules:
        for name, obj in list(vars(module).items()):
            new = replacement(obj)
            if new is not None:
                setattr(module, name, new)
            elif isinstance(obj, dict):
                for key, value in list(obj.items()):
                    new = replacement(value)
                    if new is not None:
                        obj[key] = new


def main(argv) -> int:
    span_file, job_id, spawn_time, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPAN_FILE JOB_ID SPAWN_TIME -- SUBCOMMAND [ARGS...]")
    recorder = Recorder()
    install(recorder)
    import photonflow.cli

    entry = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = 1
    try:
        code = photonflow.cli.main(cli_args)
    finally:
        with open(span_file, "w") as fh:
            json.dump({"job": job_id, "import_s": entry - float(spawn_time),
                       "exit_code": code, "counts": recorder.counts,
                       "spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
