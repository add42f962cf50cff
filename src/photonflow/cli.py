"""Command-line front end: evolve, boost-audit, trajectories, doubleslit, info.

Every subcommand but info reads an optional JSON config (--config),
writes data files into --out, and prints a short human-readable summary;
info only prints the presets, tolerances and default config.  All
randomness is seeded (--seed), all numeric output is deterministic.

evolve and doubleslit build their grid state in momentum space
(planewaves.place).  evolve holds no field: one pass (spectral.advance_into)
reads its state a z-plane at a time, turns each plane through every step
in plane buffers and writes the plane each step leaves into that step's
snapshot file, so no snapshot is read back.  A pass takes at most
_STEPS_PER_PASS steps, which bounds the files it holds open; a longer
evolve.times list runs in several passes, each reading the last snapshot
of the pass before it.  The first pass reads the placed state (divided by
the square root of its photon number for evolve.normalize, never copied)
or a momentum state file; only a position-representation state file,
which needs its 3-D transform (spectral.forward_transform_in_place), or a
state file to be normalized is held in memory, as one field; a state
file's header alone decides which, so its payload is read once.  Each
snapshot's energy, photon number and transversality residual come from
the sums its step forms in the pass.  doubleslit holds its placed state
and writes no field: one pass (photon.density_profiles) reads each z-plane
once, turns it through every time step in plane buffers and takes each
step's x,z-mean density profile along y from the plane it leaves, without
building phi~ or the 3-D inverse transform; the pass and all its gates, a
non-finite profile included, run before --out exists.  trajectories
integrates all its points in one RK4 pass (bohm.integrate_trajectories).
A closed stdout ends a subcommand with exit status 1 and no traceback.  An
--out that cannot be created as a directory exits 2, and an output file
that cannot be written exits 1 naming it ("cannot write <file>").  A
snapshot is written under a temporary name, and after the pass each step
in turn runs its transversality gate, gives its snapshot its name, checks
its k = 0 share and prints its line; the first failure removes the
snapshots not yet named, so a failed step leaves no snapshot of its own
or of a later step (and an older file of that name as it was), and a
state file may be the snapshot its first step replaces.

Config layout (any subset; missing keys take the defaults shown by
``photonflow info``)::

    {
      "units": {"c": 1.0, "hbar": 1.0},
      "grid":  {"n": 32, "L": 6.283185307179586},
      "state": {"preset": "single-wave"}
               or {"components": [{"k": [0,0,1], "I": 1.0,
                                   "handedness": "right", "phase": 0.0}]}
               or, for evolve only, {"file": "snapshot_00.phwf"},
      "boost": {"direction": [0,0,1], "u": 0.5},
      ... per-command sections below ...
    }

Every subcommand but info runs through one skeleton (``_run``) that checks
its input in one order before --out is created: the config, then the
tolerances, then state.file (rejected by all but evolve), then the
command's own checks.  One schema (``SCHEMA``) checks every key and every
bound on one value (grid.n <= 355, audit.samples <= 2^16, units.c and
units.hbar in [1e-100, 1e100], grid.L in [1e-40, 1e40]); ``_check_budget``
bounds the work of the sections a command reads: trajectory points times
RK4 knots for trajectories and the profile rows of the times for
doubleslit; evolve bounds the disk bytes of its snapshots on the n of
its grid or state file (``_check_snapshot_bytes``).  A value the library
rejects while a command builds its state, boost or time steps becomes, through
``_named``, an exit 2 naming its config field.  Boost speeds are given as
fractions of c.  Tolerances are overridden per key with
``--tolerance KEY=VALUE`` (keys listed by ``photonflow info``); every value
must be finite and > 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .bohm import (_NODE_FLOOR_REL, frame_consistency_check, integrate_trajectories,
                   knot_count, sample_points_on_line)
from .errors import (ConfigError, FieldValidationError, OffGridWaveVectorError,
                     PhotonflowError, RangeError)
from .fieldio import (_HEADER, _POINT_BYTES, WeberFile, check_weber, new_weber_files,
                      read_weber, trajectories_to_csv, weber_header, write_csv, write_json)
from .fields import (_BOX_LENGTH_RANGE, _UNIT_RANGE, MOMENTUM, POSITION, FieldPlanes, GridSpec,
                     box_energy)
from .lorentz import _AUDIT_TOL, Boost, audit_four_vector, audit_to_json, boost_plane_wave
from .photon import (DEFAULT_DC_TOLERANCE, PHI_BASED, WEBER_BASED, check_dc_share,
                     density_profiles, photon_count, single_photon_norm)
from .planewaves import (PRESETS, CircularPlaneWave, CompiledState, PlaneWaveSuperposition,
                         place)
from .spectral import (_TRANSVERSALITY_TOL, advance_into, check_step,
                       forward_transform_in_place)

# --- config schema ------------------------------------------------------------
#
# A table maps each key to (default, check), or to a nested table for a
# section.  A check takes (value, field path) and returns the typed value,
# or raises ConfigError naming the path.


def _kind(expected, accepts, typed=lambda value: value):
    """A check that accepts what ``accepts`` does and returns ``typed(value)``."""
    def check(value, path):
        if not accepts(value):
            raise ConfigError(f"{path} must be {expected}, got {value!r}", field=path)
        return typed(value)
    return check


def _real(value):
    # type(), not isinstance(), so a bool is not a number; the bound rejects
    # nan, +-inf and integers too large for a float
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


_number = _kind("a finite number", _real, float)
_positive = _kind("a finite number > 0", lambda v: _real(v) and v > 0, float)
_fraction_of_c = _kind("a fraction of c with 0 <= u < 1",
                       lambda v: _real(v) and 0 <= v < 1, float)
_flag = _kind("true or false", lambda v: type(v) is bool)


def _is_vector3(value):
    return type(value) is list and len(value) == 3 and all(map(_real, value))


def _as_array(value):
    return np.array(value, dtype=float)


def _has_length(value):
    # a direction is divided by its length, so that must be finite and > 0
    if not _is_vector3(value):
        return False
    with np.errstate(over="ignore", under="ignore"):
        return 0.0 < np.linalg.norm(_as_array(value)) < np.inf


_vector3 = _kind("three finite numbers", _is_vector3, _as_array)
_direction = _kind("three finite numbers with a finite, nonzero length", _has_length,
                   _as_array)


def _within(bounds):
    low, high = bounds
    return _kind(f"a number in [{low:g}, {high:g}]",
                 lambda v: _real(v) and low <= v <= high, float)


def _integer(low, high=None):
    bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
    return _kind(f"an integer {bounds}",
                 lambda v: type(v) is int and low <= v and (high is None or v <= high))


def _one_of(*choices):
    return _kind("one of " + ", ".join(map(repr, choices)),
                 lambda v: any(type(v) is type(c) and v == c for c in choices))


def _list_of(item):
    nonempty = _kind("a non-empty list", lambda v: type(v) is list and len(v) > 0)
    return lambda value, path: [item(v, f"{path}[{i}]")
                                for i, v in enumerate(nonempty(value, path))]


def _optional(check):
    return lambda value, path: None if value is None else check(value, path)


_COMPONENT = {
    "k": (None, _vector3),
    "I": (1.0, _positive),
    "handedness": ("right", _one_of("right", "left")),
    "phase": (0.0, _number),
}


def _state(value, path):
    """Exactly one of a preset (plus numeric arguments), components, or a file."""
    forms = [key for key in ("preset", "components", "file")
             if type(value) is dict and key in value]
    if len(forms) != 1:
        raise ConfigError(f"{path} must be an object with exactly one of 'preset', "
                          f"'components' or 'file', got {value!r}", field=path)
    form, given = forms[0], value[forms[0]]
    if form == "preset":
        if type(given) is not str or given not in PRESETS:
            raise ConfigError(
                f"unknown preset {given!r}; available: {', '.join(sorted(PRESETS))}",
                field=f"{path}.preset")
        # argument names are checked by the preset's signature in build_state
        return {key: arg if key == "preset" else _number(arg, f"{path}.{key}")
                for key, arg in value.items()}
    extra = sorted(set(value) - {form})
    if extra:
        raise ConfigError(f"{path}.{form} cannot be combined with {', '.join(extra)}",
                          field=f"{path}.{extra[0]}")
    if form == "file":
        return {"file": _kind("a path string", lambda v: type(v) is str)(given, f"{path}.file")}
    components = _kind("a list", lambda v: type(v) is list)(given, f"{path}.components")
    return {"components": [_resolve(_COMPONENT, comp, f"{path}.components[{i}]")
                           for i, comp in enumerate(components)]}


# Work bounds, checked on the resolved config before a command allocates
# anything: bytes of one n^3 grid field at 48 bytes a point (also the bound
# on the 8 n^2 bytes of profile rows that doubleslit's one pass holds per
# time), trajectory points times RK4 knots that the one integration pass
# holds (48 bytes each), and samples per four-vector audit (audits.json
# stores 14 numbers a sample for each of its eight audits).
_FIELD_BYTES_LIMIT = 2 ** 31
_MAX_N = 355  # the largest n with 48 n^3 <= _FIELD_BYTES_LIMIT
# disk bytes of all the snapshots of one evolve run, headers included: 32
# snapshots at n = 355
_SNAPSHOT_BYTES_LIMIT = 2 ** 36
# steps whose snapshots one pass of evolve writes: each worker run of the
# pass holds one file handle per snapshot besides the one it reads
_STEPS_PER_PASS = 8
_POINT_KNOTS_LIMIT = 2 ** 22
_AUDIT_SAMPLES_LIMIT = 2 ** 16

SCHEMA = {
    "units": {"c": (1.0, _within(_UNIT_RANGE)), "hbar": (1.0, _within(_UNIT_RANGE))},
    "grid": {"n": (32, _integer(2, _MAX_N)), "L": (2.0 * np.pi, _within(_BOX_LENGTH_RANGE))},
    "state": ({"preset": "single-wave"}, _state),
    "boost": {"direction": ([0.0, 0.0, 1.0], _direction), "u": (0.5, _fraction_of_c)},
    "evolve": {"times": ([0.0, 1.0, 2.0], _list_of(_number)),
               "normalize": (False, _flag)},
    "audit": {"u": (0.5, _fraction_of_c), "k_right": (1.0, _positive),
              "k_left": (2.0, _positive), "samples": (256, _integer(2, _AUDIT_SAMPLES_LIMIT))},
    "trajectories": {
        "guidance": (PHI_BASED, _one_of(PHI_BASED, WEBER_BASED)),
        "t0": (0.0, _number),
        "t1": (2.0 * np.pi, _number),
        "step": (0.05, _positive),
        "count": (16, _integer(1)),
        "line": {"origin": ([0.0, 0.0, 0.0], _vector3),
                 "direction": ([0.0, 0.0, 1.0], _direction),
                 "length": (2.0 * np.pi, _positive)},
        "initial_points": (None, _optional(_list_of(_vector3))),
        "check_event": {"x": ([0.0, 0.0, 0.0], _vector3), "t": (0.0, _number)},
    },
    "doubleslit": {
        "sources": (2, _one_of(1, 2)),
        "forward_mode": (3, _integer(1)),
        "transverse_mode": (1, _integer(1)),
        "bundle_width": (0, _integer(0)),
        "bundle_sigma": (1.0, _positive),
        "intensity_ratio": (1.0, _positive),
        "times": ([0.0, 0.4, 0.8], _list_of(_number)),
    },
}

TOLERANCES = {
    "audit": (_AUDIT_TOL, _positive),               # four-vector audit verdict threshold
    "dc": (DEFAULT_DC_TOLERANCE, _positive),        # k = 0 energy fraction in photon ops
    "transversality": (_TRANSVERSALITY_TOL, _positive),  # residual allowed by evolve
    "node_floor": (_NODE_FLOOR_REL, _positive),     # guidance node floor / density bound
}


def _check_budget(config, command):
    """Raise ConfigError naming the field that takes the work of ``command``
    over its limit: for doubleslit, doubleslit.times if its profile rows
    would exceed _FIELD_BYTES_LIMIT; for trajectories, the field that takes
    trajectory points times RK4 knots over their limit, or trajectories.t1
    if it lies before t0.  A section the command does not read is not bounded.

    The point count stays a Python int and is compared with a float, never
    converted to one, so a count of any size is rejected, not overflowed.
    """
    if command == "doubleslit":
        times, n = len(config["doubleslit"]["times"]), config["grid"]["n"]
        if 8 * n ** 2 * times > _FIELD_BYTES_LIMIT:
            raise ConfigError(f"doubleslit.times: {times} time(s) at grid.n = {n} hold "
                              f"{8 * n ** 2 * times} bytes of profile rows, over the limit of "
                              f"{_FIELD_BYTES_LIMIT}", field="doubleslit.times")
    if command != "trajectories":
        return
    section = config["trajectories"]
    points, points_field = section["count"], "trajectories.count"
    if section["initial_points"] is not None:
        points, points_field = len(section["initial_points"]), "trajectories.initial_points"
    if section["t1"] < section["t0"]:
        raise ConfigError(f"trajectories.t1 = {section['t1']!r} is before trajectories.t0 = "
                          f"{section['t0']!r}", field="trajectories.t1")
    knots = knot_count(section["t0"], section["t1"], section["step"])
    if points > _POINT_KNOTS_LIMIT / knots:
        field = "trajectories.step" if knots > _POINT_KNOTS_LIMIT else points_field
        raise ConfigError(f"{field}: {points} point(s) times {knots:.6g} RK4 knots exceed "
                          f"the limit of {_POINT_KNOTS_LIMIT} point-knots", field=field)


def _resolve(table, given, path):
    """Check the object ``given`` against ``table``; return typed values, defaults filled in."""
    if type(given) is not dict:
        raise ConfigError(f"{path or 'the config'} must be an object, got {given!r}",
                          field=path or None)
    prefix = f"{path}." if path else ""
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown key {prefix}{unknown[0]}; expected one of "
                          f"{', '.join(table)}", field=prefix + unknown[0])
    resolved = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            resolved[key] = _resolve(entry, given.get(key, {}), prefix + key)
        else:
            default, check = entry
            resolved[key] = check(given.get(key, default), prefix + key)
    return resolved


def _defaults(table):
    return {key: _defaults(entry) if isinstance(entry, dict) else entry[0]
            for key, entry in table.items()}


def load_config(path):
    """Read a JSON config, check every key against SCHEMA and fill in the
    defaults; _run then bounds the work of its command (_check_budget)."""
    user = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        try:
            user = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer literal over Python's digit limit
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return _resolve(SCHEMA, user, "")


def parse_tolerances(pairs):
    given = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ConfigError(f"--tolerance expects KEY=VALUE, got {pair!r}")
        try:
            given[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tolerance {key}: {value!r} is not a number",
                              field=f"tolerance.{key}") from exc
    return _resolve(TOLERANCES, given, "tolerance")


def build_state(config) -> PlaneWaveSuperposition:
    """The plane-wave superposition of a checked ``state`` preset or components entry."""
    state = config["state"]
    if "preset" in state:
        name = state["preset"]
        kwargs = {key: value for key, value in state.items() if key != "preset"}
        try:
            return _named("state", lambda: PRESETS[name](**kwargs))
        except TypeError as exc:  # an argument the preset does not take
            raise ConfigError(f"bad arguments for preset {name!r}: {exc}",
                              field="state") from exc
    return PlaneWaveSuperposition([
        _named(f"state.components[{i}]", CircularPlaneWave, comp["k"], comp["I"],
               comp["handedness"], comp["phase"])
        for i, comp in enumerate(state["components"])])


def _named(field, build, *args):
    """build(*args); a value the library rejects in it (FieldValidationError,
    OffGridWaveVectorError) is a ConfigError naming the config ``field``."""
    try:
        return build(*args)
    except (FieldValidationError, OffGridWaveVectorError) as exc:
        raise ConfigError(f"{field}: {exc}", field=field) from exc


@contextmanager
def _writing(path):
    """Run the block that writes the output file ``path`` (given back); an
    OSError in it becomes a PhotonflowError, "cannot write <path>: <reason>"."""
    try:
        yield path
    except OSError as exc:
        raise PhotonflowError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _steps(state, times, field):
    """The dt of each step that takes ``state`` (a field or plane source, with
    a spec and a time) to each of ``times`` in turn, formed as the steps take
    them (dt = t - time; time += dt), each checked by check_step and a
    rejected one named as ``field``."""
    time, steps = state.time, []
    for t in times:
        dt = t - time
        _named(field, check_step, state.spec, dt)
        steps.append(dt)
        time += dt
    return steps


# --- evolve -----------------------------------------------------------------

def _check_snapshot_bytes(n, times):
    """Raise ConfigError naming evolve.times if ``times`` snapshots of an
    n^3 grid would total more than _SNAPSHOT_BYTES_LIMIT bytes on disk."""
    total = times * (_HEADER.size + _POINT_BYTES * n ** 3)
    if total > _SNAPSHOT_BYTES_LIMIT:
        raise ConfigError(f"evolve.times: {times} snapshot(s) at n = {n} take {total} bytes, "
                          f"over the limit of {_SNAPSHOT_BYTES_LIMIT}", field="evolve.times")


def _initial_source(config, tol):
    """The plane source (fields.FieldPlanes or fieldio.WeberFile) evolve starts from.

    A state.file's header is read first, and the disk bytes of the
    snapshots are checked on its n or on grid.n before anything is
    allocated.  In the momentum representation the file is then checked in
    one pass through a plane buffer, and the pass of the first steps reads
    it again plane by plane; in the position representation, or to be
    normalized, it is read once, into memory (and transformed in place),
    with the same checks.  A normalized state is read through the divisor
    that makes it one photon, never copied.
    """
    normalize, times = config["evolve"]["normalize"], len(config["evolve"]["times"])
    if "file" in config["state"]:
        # resume from a stored snapshot; it carries its own grid and units,
        # so the config's grid and units sections are not used
        path = config["state"]["file"]
        try:
            size = os.stat(path).st_size
            if size > _HEADER.size + _FIELD_BYTES_LIMIT:
                raise ConfigError(f"state.file {path} is {size} bytes, over the limit of "
                                  f"{_FIELD_BYTES_LIMIT} bytes per field plus the "
                                  f"{_HEADER.size}-byte header", field="state.file")
            stored = weber_header(path)
            _check_snapshot_bytes(stored.spec.n_per_axis, times)
            if stored.representation == MOMENTUM and not normalize:
                return check_weber(path)
            weber = read_weber(path)
        except OSError as exc:
            raise ConfigError(f"cannot read field file: {exc}", field="state.file") from exc
        except RangeError as exc:  # the snapshot's L, c or hbar, before its payload
            raise ConfigError(f"state.file {path}: {exc}", field="state.file") from exc
        if weber.representation == POSITION:
            forward_transform_in_place(weber)
    else:
        grid, units = config["grid"], config["units"]
        _check_snapshot_bytes(grid["n"], times)
        spec = GridSpec(grid["n"], grid["L"], units["c"], units["hbar"])
        weber = _named("state", place, build_state(config), spec)
    return FieldPlanes(weber, single_photon_norm(weber, tol["dc"]) if normalize else None)


def cmd_evolve(config, tol, seed, out):
    section = config["evolve"]
    source = _initial_source(config, tol)
    spec, time = source.spec, source.time
    steps = _steps(source, section["times"], "evolve.times")
    yield

    records = []
    for start in range(0, len(steps), _STEPS_PER_PASS):
        # one pass writes the snapshots of up to _STEPS_PER_PASS steps, each
        # from the plane the step before it leaves; the next pass reads the
        # last of them
        group = range(start, min(start + _STEPS_PER_PASS, len(steps)))
        paths = [out / f"snapshot_{i:02d}.phwf" for i in group]
        stamps = []
        for i in group:
            time += steps[i]
            stamps.append(time)
        with new_weber_files(paths, spec, MOMENTUM, stamps) as (snapshots, commit):
            # an OSError of the pass is its first step's, which reads the source
            with _writing(paths[0]):
                passed = advance_into(source, steps[start:group.stop], snapshots,
                                      tol["transversality"])
            # in step order: the gate (as the step is taken from passed), the
            # snapshot's name, the DC check and the summary line
            for j, sums in enumerate(passed):
                path, t = paths[j], section["times"][start + j]
                with _writing(path):
                    commit(j)
                check_dc_share(sums.dc_sq, sums.sum_sq, tol["dc"])
                record = {
                    "time": t,
                    "file": path.name,
                    "energy": box_energy(sums.sum_sq, spec, MOMENTUM),
                    "photon_number": photon_count(sums.sum_sq_over_k, spec),
                    "transversality_residual": sums.residual,
                }
                records.append(record)
                print(f"t = {t:10.6g}   energy = {record['energy']:.12g}   "
                      f"N = {record['photon_number']:.12g}   "
                      f"transversality = {record['transversality_residual']:.3e}")
        source = WeberFile(paths[-1], spec, MOMENTUM, stamps[-1])
    diagnostics = {
        "grid": {"n": spec.n_per_axis, "L": spec.box_length},
        "units": {"c": spec.c, "hbar": spec.hbar},
        "normalized": section["normalize"],
        "snapshots": records,
    }
    with _writing(out / "diagnostics.json") as path:
        path.write_text(json.dumps(diagnostics, indent=2))
    print(f"wrote {len(records)} snapshot(s) and diagnostics.json to {out}")


# --- boost-audit ------------------------------------------------------------

def cmd_boost_audit(config, tol, seed, out):
    from .planewaves import counterprop_pair, single_wave

    c, hbar = config["units"]["c"], config["units"]["hbar"]
    section = config["audit"]
    u, k_right, k_left = section["u"], section["k_right"], section["k_left"]
    z_boost = Boost([0.0, 0.0, 1.0], u * c, c)
    x_boost = Boost([1.0, 0.0, 0.0], u * c, c)
    # the pair's first wave is the single wave, so once the single wave and its
    # boosts pass, the pair and its boosts can fail on k_left only; each audit
    # boosts its state again
    single = _named("audit.k_right", single_wave, k_right, 1.0)
    pair = _named("audit.k_left", counterprop_pair, k_right, k_left, 1.0)
    for field, state in (("audit.k_right", single), ("audit.k_left", pair)):
        for boost in (z_boost, x_boost):
            _named(field, boost_plane_wave, state, boost)
    yield

    scenarios = [
        ("single-wave z-boost", single, z_boost),
        ("single-wave x-boost", single, x_boost),
        ("two-wave z-boost", pair, z_boost),
        ("two-wave x-boost", pair, x_boost),
    ]

    results = []
    print(f"{'scenario':22s} {'recipe':12s} {'max mismatch':>14s}  verdict")
    for name, state, boost in scenarios:
        for recipe in (PHI_BASED, WEBER_BASED):
            audit = audit_four_vector(state, boost, recipe, hbar=hbar,
                                      n_samples=section["samples"], tolerance=tol["audit"])
            results.append((name, audit))
            print(f"{name:22s} {recipe:12s} {audit.max_mismatch:14.3e}  {audit.verdict}")

    with _writing(out / "audits.json") as path:
        write_json(path, [dict(scenario=name, **audit_to_json(audit)) for name, audit in results])

    interference = next(audit for name, audit in results
                        if name == "two-wave x-boost" and audit.recipe == PHI_BASED)
    with _writing(out / "interference.csv") as path:
        write_csv(path, "s,rho_boosted_frame,rho_fourvector,mismatch",
                  [interference.s, interference.rho_a, interference.rho_b,
                   np.abs(interference.rho_a - interference.rho_b)])
    print(f"wrote audits.json and interference.csv to {out}")


# --- trajectories -----------------------------------------------------------

def cmd_trajectories(config, tol, seed, out):
    c, hbar = config["units"]["c"], config["units"]["hbar"]
    state = build_state(config)
    boost = Boost(config["boost"]["direction"], config["boost"]["u"] * c, c)
    # compiled here for their checks only: the amplitudes of both frames must be finite
    _named("state", CompiledState, state, c, hbar)
    _named("boost", lambda: CompiledState(boost_plane_wave(state, boost), c, hbar))
    section = config["trajectories"]
    guidance, t0, t1, step = section["guidance"], section["t0"], section["t1"], section["step"]
    yield

    points = section["initial_points"]
    if points is None:
        line = section["line"]
        rng = np.random.default_rng(seed)
        points = sample_points_on_line(state, line["origin"], line["direction"],
                                       line["length"], section["count"], rng,
                                       guidance, t=t0, c=c, hbar=hbar)

    trajectories = integrate_trajectories(state, points, t0, t1, step, guidance, c=c,
                                          hbar=hbar, node_floor_rel=tol["node_floor"])
    with _writing(out / "trajectories.csv") as path:
        trajectories_to_csv(path, trajectories)

    node_hits = sum(t.node_hit for t in trajectories)
    max_speed = max(float(np.linalg.norm(t.velocities, axis=1).max())
                    for t in trajectories)
    print(f"integrated {len(trajectories)} trajectories ({guidance}), "
          f"t = [{t0:g}, {t1:g}] step {step:g}; node hits: {node_hits}; "
          f"max |v|/c = {max_speed / c:.12g}")

    event = section["check_event"]
    checks = []
    for recipe in (PHI_BASED, WEBER_BASED):
        result = frame_consistency_check(state, boost, event["x"], event["t"], recipe,
                                         hbar=hbar, node_floor_rel=tol["node_floor"])
        checks.append({
            "guidance": recipe,
            "event_rest": {"x": result.x.tolist(), "t": result.t},
            "event_boosted": {"x": result.x_prime.tolist(), "t": result.t_prime},
            "v_rest": result.v_rest.tolist(),
            "v_velocity_addition": result.v_velocity_addition.tolist(),
            "v_boosted_frame": result.v_boosted_frame.tolist(),
            "mismatch_over_c": result.mismatch,
        })
        print(f"frame consistency ({recipe}): |route1 - route2| = "
              f"{result.mismatch:.6g} c")
    summary = {
        "guidance": guidance,
        "count": len(trajectories),
        "t0": t0, "t1": t1, "step": step,
        "node_hits": int(node_hits),
        "max_speed_over_c": max_speed / c,
        "boost": {"direction": boost.direction.tolist(), "u": boost.speed / c},
        "frame_consistency": checks,
    }
    with _writing(out / "summary.json") as path:
        path.write_text(json.dumps(summary, indent=2))
    print(f"wrote trajectories.csv and summary.json to {out}")


# --- doubleslit -------------------------------------------------------------

def build_slit_state(section, spec) -> PlaneWaveSuperposition:
    """Two mutually coherent wave bundles, mirrored across the forward axis.

    Each bundle is a set of right-handed on-grid modes
    k = (2 pi / L)(0, m_t + j, m_f), j = -w .. w, with Gaussian amplitude
    weights exp(-j^2 / (2 sigma^2)); the second bundle has the transverse
    indices negated.  bundle_width 0 gives the pure two-beam case.
    """
    m_f, m_t, width = section["forward_mode"], section["transverse_mode"], section["bundle_width"]
    sigma, ratio = section["bundle_sigma"], section["intensity_ratio"]
    limit = spec.n_per_axis // 2 - 1
    if m_f > limit or m_t + width > limit:
        raise ConfigError(
            f"modes up to (0, {m_t + width}, {m_f}) exceed the grid's resolvable "
            f"range |m| <= {limit}; raise grid.n", field="doubleslit")

    offsets = np.arange(-width, width + 1)
    # a float64 sigma^2 is inf past 1e154 (equal weights), where a float's raises
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.exp(-offsets ** 2 / (2.0 * np.float64(sigma) ** 2))
        weights = weights ** 2 / (weights ** 2).sum()
    if not (weights > 0).all():
        raise ConfigError(
            f"bundle_sigma = {sigma!r} is too small for bundle_width = {width}: the "
            f"Gaussian weights exp(-j^2 / sigma^2) leave a mode of each bundle none",
            field="doubleslit.bundle_sigma")
    unit = 2.0 * np.pi / spec.box_length
    waves = []
    for source_sign, source_intensity in ((1, 1.0), (-1, ratio))[:section["sources"]]:
        for j, w in zip(offsets, weights):
            m = source_sign * (m_t + int(j))
            if m == 0:
                continue
            waves.append(CircularPlaneWave(
                unit * np.array([0.0, float(m), float(m_f)]),
                source_intensity * float(w), "right", 0.0))
    return PlaneWaveSuperposition(waves)


def _fringe_measurement(profile, box_length):
    """(spacing, visibility) from a 1-d density profile; spacing None if flat."""
    spectrum = np.abs(np.fft.rfft(profile))
    if spectrum[0] == 0.0 or spectrum[1:].size == 0 or \
            spectrum[1:].max() < 1e-9 * spectrum[0]:
        return None, 0.0
    m = 1 + int(np.argmax(spectrum[1:]))
    visibility = float((profile.max() - profile.min()) / (profile.max() + profile.min()))
    return box_length / m, visibility


def cmd_doubleslit(config, tol, seed, out):
    grid, units, section = config["grid"], config["units"], config["doubleslit"]
    spec = GridSpec(grid["n"], grid["L"], units["c"], units["hbar"])
    # only the second source's intensity can underflow to 0 or take an
    # amplitude beyond a float
    state = _named("doubleslit.intensity_ratio", build_slit_state, section, spec)
    weber = _named("doubleslit.intensity_ratio", place, state, spec)
    times = section["times"]
    # every step and profile in one pass over the placed state, which is only read
    profiles = density_profiles(weber, _steps(weber, times, "doubleslit.times"),
                                tol["transversality"], tol["dc"])
    if not all(np.isfinite(profile).all() for profile in profiles):
        raise ConfigError(
            f"units.c = {spec.c!r}: the density profile, which scales as L / (c^2 hbar), "
            f"is not finite at grid.L = {spec.box_length!r} and units.hbar = {spec.hbar!r}",
            field="units.c")
    yield

    y = spec.axis_coordinates()
    with _writing(out / "frames.csv") as path:
        write_csv(path, "t,y,rho",
                  [np.repeat(times, y.size), np.tile(y, len(times)), np.concatenate(profiles)])

    spacing, visibility = _fringe_measurement(profiles[0], spec.box_length)
    m_t = section["transverse_mode"]
    expected = spec.box_length / (2 * m_t) if section["sources"] == 2 else None
    summary = {
        "sources": section["sources"],
        "times": times,
        "grid": {"n": spec.n_per_axis, "L": spec.box_length, "cell": spec.dx},
        "component_count": len(state.components),
        "fringe_spacing": spacing,
        "expected_spacing": expected,
        "visibility": visibility,
    }
    with _writing(out / "summary.json") as path:
        path.write_text(json.dumps(summary, indent=2))
    if spacing is None:
        print("profile is fringe-free (no transverse interference)")
    else:
        print(f"fringe spacing = {spacing:.6g} (two-beam prediction "
              f"{expected if expected is not None else float('nan'):.6g}), "
              f"visibility = {visibility:.4f}")
    print(f"wrote frames.csv and summary.json to {out}")


# --- info -------------------------------------------------------------------

def cmd_info(args):
    print(f"photonflow {__version__}")
    print("\npresets:")
    for name, factory in sorted(PRESETS.items()):
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:20s} {doc}")
    print("\ndefault tolerances (--tolerance KEY=VALUE):")
    for key, (value, _) in TOLERANCES.items():
        print(f"  {key:16s} {value:g}")
    print("\ndefault config:")
    print(json.dumps(_defaults(SCHEMA), indent=2))
    print(
        "\nPHWF1 field container: 'PHWF1' magic, uint32 n, float64 L, c, hbar,\n"
        "1-byte representation tag (0 position, 1 momentum), float64 time,\n"
        "then n^3 points (x fastest) of six little-endian float64 each:\n"
        "Re Fx, Im Fx, Re Fy, Im Fy, Re Fz, Im Fz.")
    return 0


# --- entry point ------------------------------------------------------------

def _run(args) -> int:
    """Check the config, the work it asks of the command, the tolerances and
    state.file, run the generator ``args.handler(config, tol, seed, out)``
    through its own checks up to its one bare yield, then create --out and
    run the rest of the command."""
    config = load_config(args.config)
    _check_budget(config, args.command)
    tol = parse_tolerances(args.tolerance)
    if args.command != "evolve" and "file" in config["state"]:
        raise ConfigError("state.file is read by evolve only", field="state.file")
    out = Path(args.out)
    command = args.handler(config, tol, args.seed, out)
    next(command)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at out or on the way to it, or no permission
        raise ConfigError(f"--out {out}: cannot create the output directory: "
                          f"{exc.strerror or exc}") from exc
    next(command, None)
    return 0


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file (merged over defaults)")
    parser.add_argument("--out", default="photonflow-out",
                        help="output directory (default: photonflow-out)")
    parser.add_argument("--seed", type=int, default=0,
                        help="RNG seed for ensemble sampling (default: 0)")
    parser.add_argument("--tolerance", action="append", metavar="KEY=VALUE",
                        help="override a named tolerance; repeatable")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="photonflow",
        description="Free-field photon dynamics: evolution, boosts, trajectories.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "evolve": (cmd_evolve, "evolve a state and write field snapshots"),
        "boost-audit": (cmd_boost_audit,
                        "test both flow recipes for four-vector covariance"),
        "trajectories": (cmd_trajectories,
                         "integrate guidance trajectories and check frames"),
        "doubleslit": (cmd_doubleslit, "two-source interference demo"),
        "info": (cmd_info, "print version, presets, config schema"),
    }
    for name, (handler, help_text) in handlers.items():
        p = sub.add_parser(name, help=help_text)
        if handler is not cmd_info:  # info reads no config and writes no files
            _add_common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = cmd_info(args) if args.command == "info" else _run(args)
        sys.stdout.flush()  # a closed stdout fails here, inside the try
        return code
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so the
        # interpreter's final flush raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"error: {exc}" + (f" (field: {exc.field})" if exc.field else ""),
              file=sys.stderr)
        print(f"run 'photonflow info' for the config schema", file=sys.stderr)
        return 2
    except PhotonflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
