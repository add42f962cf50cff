"""Command-line front end: evolve, boost-audit, trajectories, doubleslit, info.

Every subcommand reads an optional JSON config (--config), writes data
files into --out, and prints a short human-readable summary.  All
randomness is seeded (--seed), all numeric output is deterministic.

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

Boost speeds are given as fractions of c.  Tolerances are overridden per
key with ``--tolerance KEY=VALUE`` (keys listed by ``photonflow info``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bohm import frame_consistency_check, integrate_trajectory, sample_points_on_line
from .errors import ConfigError, OffGridWaveVectorError, PhotonflowError
from .fieldio import read_weber, trajectories_to_csv, write_csv, write_weber
from .fields import POSITION, GridSpec, total_energy
from .lorentz import Boost, audit_four_vector, audit_to_json
from .photon import (PHI_BASED, WEBER_BASED, normalize_single_photon,
                     photon_number, photon_wavefunction, probability_flow,
                     to_position)
from .planewaves import (PRESETS, CircularPlaneWave, PlaneWaveSuperposition,
                         sample_to_grid)
from .spectral import evolve, forward_transform, transversality_residual

DEFAULT_TOLERANCES = {
    "audit": 1e-9,          # four-vector audit verdict threshold
    "dc": 1e-12,            # k = 0 energy fraction allowed in photon ops
    "transversality": 1e-10,  # residual allowed by evolve
    "node_floor": 1e-12,    # guidance node floor, relative to density bound
}

DEFAULT_CONFIG = {
    "units": {"c": 1.0, "hbar": 1.0},
    "grid": {"n": 32, "L": 2.0 * np.pi},
    "state": {"preset": "single-wave"},
    "boost": {"direction": [0.0, 0.0, 1.0], "u": 0.5},
    "evolve": {"times": [0.0, 1.0, 2.0], "normalize": False},
    "audit": {"u": 0.5, "k_right": 1.0, "k_left": 2.0, "samples": 256},
    "trajectories": {
        "guidance": PHI_BASED,
        "t0": 0.0,
        "t1": 2.0 * np.pi,
        "step": 0.05,
        "count": 16,
        "line": {"origin": [0.0, 0.0, 0.0], "direction": [0.0, 0.0, 1.0],
                 "length": 2.0 * np.pi},
        "initial_points": None,
        "check_event": {"x": [0.0, 0.0, 0.0], "t": 0.0},
    },
    "doubleslit": {
        "sources": 2,
        "forward_mode": 3,
        "transverse_mode": 1,
        "bundle_width": 0,
        "bundle_sigma": 1.0,
        "intensity_ratio": 1.0,
        "times": [0.0, 0.4, 0.8],
    },
}


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"expected an object at {path or 'top level'}, "
                          f"got {type(override).__name__}", field=path)
    out = dict(defaults)
    for key, value in override.items():
        if isinstance(out.get(key), dict) and isinstance(value, dict):
            out[key] = _merge(out[key], value, f"{path}.{key}" if path else key)
        else:
            out[key] = value
    return out


def load_config(path):
    """Read a JSON config and merge it over the defaults."""
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        user = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
    merged = _merge(DEFAULT_CONFIG, user)
    if "state" in user:
        # preset / components / file are alternatives, so a user-supplied
        # state replaces the default instead of merging with it
        merged["state"] = user["state"]
    return merged


def _require_number(cfg, key, field, positive=False):
    value = cfg.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not np.isfinite(value):
        raise ConfigError(f"{field} must be a finite number, got {value!r}", field=field)
    if positive and value <= 0:
        raise ConfigError(f"{field} must be > 0, got {value!r}", field=field)
    return float(value)


def _vector3(value, field):
    if (not isinstance(value, (list, tuple)) or len(value) != 3
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       and np.isfinite(v) for v in value)):
        raise ConfigError(f"{field} must be three finite numbers, got {value!r}", field=field)
    return np.array(value, dtype=float)


def build_grid(config) -> GridSpec:
    units = config["units"]
    grid = config["grid"]
    c = _require_number(units, "c", "units.c", positive=True)
    hbar = _require_number(units, "hbar", "units.hbar", positive=True)
    n = grid.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        raise ConfigError(f"grid.n must be an integer >= 2, got {n!r}", field="grid.n")
    box = _require_number(grid, "L", "grid.L", positive=True)
    return GridSpec(n, box, c, hbar)


def build_state(config) -> PlaneWaveSuperposition:
    state = config["state"]
    if not isinstance(state, dict):
        raise ConfigError("state must be an object", field="state")
    has_preset = "preset" in state
    has_components = "components" in state
    if has_preset == has_components:
        raise ConfigError("state needs exactly one of 'preset' or 'components'",
                          field="state")
    if has_preset:
        name = state["preset"]
        if name not in PRESETS:
            raise ConfigError(
                f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}",
                field="state.preset")
        kwargs = {key: _require_number(state, key, f"state.{key}")
                  for key in state if key != "preset"}
        try:
            return PRESETS[name](**kwargs)
        except (TypeError, PhotonflowError) as exc:
            raise ConfigError(f"bad arguments for preset {name!r}: {exc}",
                              field="state") from exc
    components = state["components"]
    if not isinstance(components, list):
        raise ConfigError("state.components must be a list", field="state.components")
    waves = []
    for i, comp in enumerate(components):
        field = f"state.components[{i}]"
        if not isinstance(comp, dict):
            raise ConfigError(f"{field} must be an object", field=field)
        k = _vector3(comp.get("k"), f"{field}.k")
        intensity = _require_number(comp, "I", f"{field}.I", positive=True) if "I" in comp else 1.0
        handedness = comp.get("handedness", "right")
        phase = _require_number(comp, "phase", f"{field}.phase") if "phase" in comp else 0.0
        try:
            waves.append(CircularPlaneWave(k, intensity, handedness, phase))
        except PhotonflowError as exc:
            raise ConfigError(f"{field}: {exc}", field=field) from exc
    return PlaneWaveSuperposition(waves)


def build_boost(config, c) -> Boost:
    boost = config["boost"]
    direction = _vector3(boost.get("direction"), "boost.direction")
    u = _require_number(boost, "u", "boost.u")
    if not 0.0 <= u < 1.0:
        raise ConfigError(f"boost.u is a fraction of c and must satisfy 0 <= u < 1, "
                          f"got {u!r}", field="boost.u")
    try:
        return Boost(direction, u * c, c)
    except PhotonflowError as exc:
        raise ConfigError(f"boost: {exc}", field="boost") from exc


def parse_tolerances(pairs):
    tol = dict(DEFAULT_TOLERANCES)
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or key not in tol:
            raise ConfigError(
                f"--tolerance expects KEY=VALUE with KEY in {sorted(tol)}, got {pair!r}")
        try:
            tol[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"--tolerance {key}: {value!r} is not a number") from exc
    return tol


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- evolve -----------------------------------------------------------------

def cmd_evolve(args):
    config = load_config(args.config)
    tol = parse_tolerances(args.tolerance)
    section = config["evolve"]
    times = section.get("times")
    if (not isinstance(times, list) or not times
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in times)):
        raise ConfigError("evolve.times must be a non-empty list of numbers",
                          field="evolve.times")
    out = _out_dir(args)

    state_cfg = config.get("state")
    if isinstance(state_cfg, dict) and "file" in state_cfg:
        # resume from a stored snapshot; it carries its own grid and units,
        # so the config's grid section is ignored
        if set(state_cfg) != {"file"}:
            raise ConfigError("state.file cannot be combined with preset or components",
                              field="state")
        if not isinstance(state_cfg["file"], str):
            raise ConfigError("state.file must be a path string", field="state.file")
        try:
            weber = read_weber(state_cfg["file"])
        except OSError as exc:
            raise ConfigError(f"cannot read field file: {exc}", field="state.file")
        if weber.representation == POSITION:
            weber = forward_transform(weber)
        spec = weber.spec
    else:
        spec = build_grid(config)
        state = build_state(config)
        weber = forward_transform(sample_to_grid(state, spec, t=0.0))
    if section.get("normalize", False):
        weber = normalize_single_photon(weber, dc_tolerance=tol["dc"])

    records = []
    for i, t in enumerate(times):
        weber = evolve(weber, float(t) - weber.time, transversality_tol=tol["transversality"])
        snapshot = out / f"snapshot_{i:02d}.phwf"
        write_weber(snapshot, weber)
        record = {
            "time": float(t),
            "file": snapshot.name,
            "energy": total_energy(weber),
            "photon_number": photon_number(weber, dc_tolerance=tol["dc"]),
            "transversality_residual": transversality_residual(weber),
        }
        records.append(record)
        print(f"t = {t:10.6g}   energy = {record['energy']:.12g}   "
              f"N = {record['photon_number']:.12g}   "
              f"transversality = {record['transversality_residual']:.3e}")
    diagnostics = {
        "grid": {"n": spec.n_per_axis, "L": spec.box_length},
        "units": {"c": spec.c, "hbar": spec.hbar},
        "normalized": bool(section.get("normalize", False)),
        "snapshots": records,
    }
    (out / "diagnostics.json").write_text(json.dumps(diagnostics, indent=2))
    print(f"wrote {len(records)} snapshot(s) and diagnostics.json to {out}")
    return 0


# --- boost-audit ------------------------------------------------------------

def cmd_boost_audit(args):
    from .planewaves import counterprop_pair, single_wave

    config = load_config(args.config)
    tol = parse_tolerances(args.tolerance)
    units = config["units"]
    c = _require_number(units, "c", "units.c", positive=True)
    hbar = _require_number(units, "hbar", "units.hbar", positive=True)
    section = config["audit"]
    u = _require_number(section, "u", "audit.u")
    if not 0.0 <= u < 1.0:
        raise ConfigError("audit.u is a fraction of c and must satisfy 0 <= u < 1",
                          field="audit.u")
    k_right = _require_number(section, "k_right", "audit.k_right", positive=True)
    k_left = _require_number(section, "k_left", "audit.k_left", positive=True)
    samples = section.get("samples", 256)
    if not isinstance(samples, int) or isinstance(samples, bool) or samples < 2:
        raise ConfigError("audit.samples must be an integer >= 2", field="audit.samples")
    out = _out_dir(args)

    single = single_wave(k_right, 1.0)
    pair = counterprop_pair(k_right, k_left, 1.0)
    z_boost = Boost(np.array([0.0, 0.0, 1.0]), u * c, c)
    x_boost = Boost(np.array([1.0, 0.0, 0.0]), u * c, c)
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
            audit = audit_four_vector(state, boost, recipe, c=c, hbar=hbar,
                                      n_samples=samples, tolerance=tol["audit"])
            results.append((name, audit))
            print(f"{name:22s} {recipe:12s} {audit.max_mismatch:14.3e}  {audit.verdict}")

    payload = [dict(scenario=name, **audit_to_json(audit)) for name, audit in results]
    (out / "audits.json").write_text(json.dumps(payload, indent=2))

    interference = next(audit for name, audit in results
                        if name == "two-wave x-boost" and audit.recipe == PHI_BASED)
    write_csv(out / "interference.csv",
              "s,rho_boosted_frame,rho_fourvector,mismatch",
              [interference.s, interference.rho_a, interference.rho_b,
               np.abs(interference.rho_a - interference.rho_b)])
    print(f"wrote audits.json and interference.csv to {out}")
    return 0


# --- trajectories -----------------------------------------------------------

def cmd_trajectories(args):
    config = load_config(args.config)
    tol = parse_tolerances(args.tolerance)
    units = config["units"]
    c = _require_number(units, "c", "units.c", positive=True)
    hbar = _require_number(units, "hbar", "units.hbar", positive=True)
    state = build_state(config)
    boost = build_boost(config, c)
    section = config["trajectories"]
    guidance = section.get("guidance")
    if guidance not in (PHI_BASED, WEBER_BASED):
        raise ConfigError(f"trajectories.guidance must be '{PHI_BASED}' or "
                          f"'{WEBER_BASED}', got {guidance!r}",
                          field="trajectories.guidance")
    t0 = _require_number(section, "t0", "trajectories.t0")
    t1 = _require_number(section, "t1", "trajectories.t1")
    step = _require_number(section, "step", "trajectories.step", positive=True)
    out = _out_dir(args)

    initial = section.get("initial_points")
    if initial is not None:
        if not isinstance(initial, list) or not initial:
            raise ConfigError("trajectories.initial_points must be a non-empty list of points",
                              field="trajectories.initial_points")
        points = [_vector3(p, f"trajectories.initial_points[{i}]") for i, p in enumerate(initial)]
    else:
        count = section.get("count", 16)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ConfigError("trajectories.count must be a positive integer",
                              field="trajectories.count")
        line = section.get("line", {})
        origin = _vector3(line.get("origin"), "trajectories.line.origin")
        direction = _vector3(line.get("direction"), "trajectories.line.direction")
        length = _require_number(line, "length", "trajectories.line.length", positive=True)
        rng = np.random.default_rng(args.seed)
        points = sample_points_on_line(state, origin, direction, length, count, rng,
                                       guidance, t=t0, c=c, hbar=hbar)

    trajectories = [
        integrate_trajectory(state, x0, t0, t1, step, guidance, c=c, hbar=hbar,
                             node_floor_rel=tol["node_floor"])
        for x0 in points
    ]
    trajectories_to_csv(out / "trajectories.csv", trajectories)

    node_hits = sum(t.node_hit for t in trajectories)
    max_speed = max(float(np.linalg.norm(t.velocities, axis=1).max())
                    for t in trajectories)
    print(f"integrated {len(trajectories)} trajectories ({guidance}), "
          f"t = [{t0:g}, {t1:g}] step {step:g}; node hits: {node_hits}; "
          f"max |v|/c = {max_speed / c:.12g}")

    event = section.get("check_event", {})
    x_event = _vector3(event.get("x"), "trajectories.check_event.x")
    t_event = _require_number(event, "t", "trajectories.check_event.t")
    checks = []
    for recipe in (PHI_BASED, WEBER_BASED):
        result = frame_consistency_check(state, boost, x_event, t_event, recipe,
                                         c=c, hbar=hbar,
                                         node_floor_rel=tol["node_floor"])
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
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    print(f"wrote trajectories.csv and summary.json to {out}")
    return 0


# --- doubleslit -------------------------------------------------------------

def build_slit_state(section, spec) -> PlaneWaveSuperposition:
    """Two mutually coherent wave bundles, mirrored across the forward axis.

    Each bundle is a set of right-handed on-grid modes
    k = (2 pi / L)(0, m_t + j, m_f), j = -w .. w, with Gaussian amplitude
    weights exp(-j^2 / (2 sigma^2)); the second bundle has the transverse
    indices negated.  bundle_width 0 gives the pure two-beam case.
    """
    sources = section.get("sources", 2)
    if sources not in (1, 2):
        raise ConfigError("doubleslit.sources must be 1 or 2", field="doubleslit.sources")
    m_f = section.get("forward_mode", 3)
    m_t = section.get("transverse_mode", 1)
    width = section.get("bundle_width", 0)
    for name, value in (("forward_mode", m_f), ("transverse_mode", m_t),
                        ("bundle_width", width)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigError(f"doubleslit.{name} must be a nonnegative integer",
                              field=f"doubleslit.{name}")
    if m_f == 0 or m_t == 0:
        raise ConfigError("doubleslit forward_mode and transverse_mode must be nonzero",
                          field="doubleslit")
    sigma = _require_number(section, "bundle_sigma", "doubleslit.bundle_sigma",
                            positive=True) if "bundle_sigma" in section else 1.0
    ratio = _require_number(section, "intensity_ratio", "doubleslit.intensity_ratio",
                            positive=True) if "intensity_ratio" in section else 1.0
    limit = spec.n_per_axis // 2 - 1
    if m_f > limit or m_t + width > limit:
        raise ConfigError(
            f"modes up to (0, {m_t + width}, {m_f}) exceed the grid's resolvable "
            f"range |m| <= {limit}; raise grid.n", field="doubleslit")

    offsets = np.arange(-width, width + 1)
    weights = np.exp(-offsets ** 2 / (2.0 * sigma ** 2))
    weights = weights ** 2 / (weights ** 2).sum()
    unit = 2.0 * np.pi / spec.box_length
    waves = []
    for source_sign, source_intensity in ((1, 1.0), (-1, ratio))[:sources]:
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


def cmd_doubleslit(args):
    config = load_config(args.config)
    tol = parse_tolerances(args.tolerance)
    spec = build_grid(config)
    section = config["doubleslit"]
    times = section.get("times", [0.0])
    if (not isinstance(times, list) or not times
            or not all(isinstance(t, (int, float)) and not isinstance(t, bool) for t in times)):
        raise ConfigError("doubleslit.times must be a non-empty list of numbers",
                          field="doubleslit.times")
    out = _out_dir(args)

    state = build_slit_state(section, spec)
    weber = forward_transform(sample_to_grid(state, spec, t=0.0))

    y = spec.axis_coordinates()
    frames = []
    profiles = []
    for t in times:
        weber = evolve(weber, float(t) - weber.time, transversality_tol=tol["transversality"])
        flow = probability_flow(to_position(photon_wavefunction(weber, dc_tolerance=tol["dc"])))
        profile = flow.rho.mean(axis=(0, 2))
        profiles.append(profile)
        frames.append(np.column_stack([np.full_like(y, float(t)), y, profile]))
    table = np.vstack(frames)
    np.savetxt(out / "frames.csv", table, delimiter=",", header="t,y,rho", comments="")

    spacing, visibility = _fringe_measurement(profiles[0], spec.box_length)
    m_t = section.get("transverse_mode", 1)
    expected = spec.box_length / (2 * m_t) if section.get("sources", 2) == 2 else None
    summary = {
        "sources": section.get("sources", 2),
        "times": [float(t) for t in times],
        "grid": {"n": spec.n_per_axis, "L": spec.box_length, "cell": spec.dx},
        "component_count": len(state.components),
        "fringe_spacing": spacing,
        "expected_spacing": expected,
        "visibility": visibility,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    if spacing is None:
        print("profile is fringe-free (no transverse interference)")
    else:
        print(f"fringe spacing = {spacing:.6g} (two-beam prediction "
              f"{expected if expected is not None else float('nan'):.6g}), "
              f"visibility = {visibility:.4f}")
    print(f"wrote frames.csv and summary.json to {out}")
    return 0


# --- info -------------------------------------------------------------------

def cmd_info(args):
    print(f"photonflow {__version__}")
    print("\npresets:")
    for name, factory in sorted(PRESETS.items()):
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:20s} {doc}")
    print("\ndefault tolerances (--tolerance KEY=VALUE):")
    for key, value in DEFAULT_TOLERANCES.items():
        print(f"  {key:16s} {value:g}")
    print("\ndefault config:")
    print(json.dumps(DEFAULT_CONFIG, indent=2))
    print(
        "\nPHWF1 field container: 'PHWF1' magic, uint32 n, float64 L, c, hbar,\n"
        "1-byte representation tag (0 position, 1 momentum), float64 time,\n"
        "then n^3 points (x fastest) of six little-endian float64 each:\n"
        "Re Fx, Im Fx, Re Fy, Im Fy, Re Fz, Im Fz.")
    return 0


# --- entry point ------------------------------------------------------------

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
        _add_common(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}" + (f" (field: {exc.field})" if exc.field else ""),
              file=sys.stderr)
        print(f"run 'photonflow info' for the config schema", file=sys.stderr)
        return 2
    except OffGridWaveVectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhotonflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
