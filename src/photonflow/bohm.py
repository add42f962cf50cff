"""Guidance-equation trajectories for the flow recipes.

A flow (rho, J) defines a velocity field v = J / rho and trajectories
dx/dt = v(x, t).  Two guidance laws are supported:

    phi_based     v = J / rho         (probability flow of the wave function)
    weber_based   v = S / rho_E       (energy transport velocity)

Both satisfy |v| <= c pointwise, since |J| <= c rho holds for each by
the triangle inequality on the underlying complex field.

Near nodes of the density the velocity is undefined.  The node floor is
relative to a rigorous upper bound on the density (the squared sum of
component amplitude norms), so it does not depend on where the state is
evaluated.

_rk4 is the one integrator: a fixed-step RK4 pass over an array of points,
four guidance evaluations a step, each covering every point.  It serves
integrate_trajectories, which keeps every knot of the pass and cuts each
point's Trajectory at its first node stop, and transport_ensemble, which
keeps only the final knot.
knot_count is the one count of its knots, which the CLI's work bound reads
as well; a pass of more than 2^53 knots is rejected.

The frame-consistency check compares, at one event, the velocity
obtained by relativistically transforming the rest-frame velocity
against the velocity of the boosted-frame flow at the transformed event.
Agreement for every event is what it means for the trajectories
themselves to be Lorentz covariant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldValidationError, GuidanceNodeError, InternalConsistencyError
from .lorentz import Boost, boost_event, boost_plane_wave, velocity_addition
from .planewaves import PHI_BASED, CompiledState, PlaneWaveSuperposition, flow_recipe

SPEED_SLACK = 1e-9
# default guidance node floor, relative to the state's density bound
_NODE_FLOOR_REL = 1e-12
# points of the density table that sample_points_on_line inverts
_LINE_SAMPLES = 4096


def _velocity_field(state, guidance, c, hbar, node_floor_rel, **inputs):
    """v(x, t) -> (velocity, node mask); checks the inputs and compiles once."""
    recipe = flow_recipe(guidance)
    for name, value in inputs.items():
        if not np.all(np.isfinite(value)):
            raise FieldValidationError(f"{name} must be finite, got {value!r}")
    compiled = CompiledState(state, c, hbar)
    floor = node_floor_rel * compiled.density_bound(recipe)
    return lambda x, t: _velocity_masked(compiled, recipe, x, t, floor)


def _velocity_masked(compiled, recipe, x, t, floor):
    """Velocity with node mask instead of an exception; nodes get v = 0."""
    rho, current = compiled.flow(recipe, x, t)
    mask = rho <= floor
    safe = np.where(mask, 1.0, rho)
    v = current / safe[..., None]
    v = np.where(mask[..., None], 0.0, v)
    speed = np.linalg.norm(v, axis=-1)
    # "not <=" so that a NaN speed fails the gate
    if speed.size and not speed.max() <= compiled.c * (1.0 + SPEED_SLACK):
        raise InternalConsistencyError(
            f"guidance speed {speed.max()!r} exceeds c = {compiled.c!r}; "
            f"the flow recipe violated |J| <= c rho")
    return v, mask


def guidance_velocity(state: PlaneWaveSuperposition, x, t, guidance: str = PHI_BASED,
                      *, c: float = 1.0, hbar: float = 1.0,
                      node_floor_rel: float = _NODE_FLOOR_REL) -> np.ndarray:
    """v = J / rho at points x (..., 3) and time(s) t.

    Raises GuidanceNodeError if any point sits where the density is below
    node_floor_rel times its global upper bound.
    """
    v, mask = _velocity_field(state, guidance, c, hbar, node_floor_rel, x=x, t=t)(x, t)
    if np.any(mask):
        idx = np.unravel_index(np.argmax(mask), mask.shape)
        where = np.asarray(x, dtype=float)[idx]
        when = float(np.broadcast_to(np.asarray(t, dtype=float), mask.shape)[idx])
        raise GuidanceNodeError(
            f"density node at x = {where.tolist()}, t = {when:.6g}: "
            f"guidance velocity undefined", location=where, time=when)
    return v


@dataclass
class Trajectory:
    """Sampled solution of dx/dt = v(x, t) at the integrator's time knots."""

    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    guidance: str
    node_hit: bool = False


def knot_count(t0: float, t1: float, step: float) -> float:
    """Knots of _rk4's pass from t0 to t1 >= t0 by ``step`` > 0, t0 included.

    A float, so that a span too long for the step gives inf rather than an
    integer too large to hold; below 2^53 it is the exact count.
    """
    span = float(t1) - float(t0)  # Python floats: an overflow gives inf, not a warning
    if span <= 0:
        return 1.0
    return 1.0 + max(1.0, float(np.ceil(span / float(step) - 1e-12)))


def _rk4(state, points, t0, t1, step, guidance, c, hbar, node_floor_rel):
    """The one integrator: fixed-step RK4 for points (n, 3), yielding (t, x, v, live)
    at t0 and after each step, the last step shortened to land on t1.  A point
    meeting a density node in a step stays at its last knot and is no longer
    live.  A knot's velocity is the next k1: four guidance evaluations a step.
    """
    x = np.array(points, dtype=float)
    if x.ndim != 2 or x.shape[1] != 3:
        raise FieldValidationError(f"points must have shape (n, 3), got {x.shape}")
    velocity = _velocity_field(state, guidance, c, hbar, node_floor_rel,
                               points=x, t0=t0, t1=t1, step=step)
    if step <= 0:
        raise FieldValidationError(f"step must be positive, got {step!r}")
    if t1 < t0:
        raise FieldValidationError(f"need t1 >= t0, got t0 = {t0!r}, t1 = {t1!r}")
    count = knot_count(t0, t1, step)
    if not count <= 2 ** 53:  # beyond it a float no longer counts exactly
        raise FieldValidationError(
            f"step = {step!r} takes {count:.6g} RK4 knots from t0 = {t0!r} to t1 = {t1!r}, "
            f"more than 2^53")
    knots = t0 + step * np.arange(int(count))
    knots[-1] = t1
    v, node = velocity(x, knots[0])
    live = ~node
    yield knots[0], x, v, live
    for a, b in zip(knots[:-1], knots[1:]):
        if not live.any():
            return
        h = b - a
        k2, m2 = velocity(x + 0.5 * h * v, a + 0.5 * h)
        k3, m3 = velocity(x + 0.5 * h * k2, a + 0.5 * h)
        k4, m4 = velocity(x + h * k3, b)
        x_next = x + (h / 6.0) * (v + 2.0 * k2 + 2.0 * k3 + k4)
        v_next, m5 = velocity(x_next, b)
        live = live & ~(m2 | m3 | m4 | m5)
        x = np.where(live[:, None], x_next, x)
        v = np.where(live[:, None], v_next, v)
        yield b, x, v, live


def integrate_trajectories(state: PlaneWaveSuperposition, points, t0: float, t1: float,
                           step: float, guidance: str = PHI_BASED, *, c: float = 1.0,
                           hbar: float = 1.0,
                           node_floor_rel: float = _NODE_FLOOR_REL) -> list:
    """Classic fixed-step RK4 for points (n, 3) from t0 to t1 in one pass, last step
    shortened to land on t1; returns one Trajectory per point.

    A trajectory that reaches a density node stops there: it keeps the
    knots before the node and has node_hit = True.  A point that starts on
    a node raises GuidanceNodeError.
    """
    knots = _rk4(state, points, t0, t1, step, guidance, c, hbar, node_floor_rel)
    first = t, x, _, live = next(knots)
    if not live.all():
        i = int(np.argmin(live))
        raise GuidanceNodeError(
            f"trajectory starts on a density node at x = {x[i].tolist()}, t = {t:.6g}",
            location=x[i], time=float(t))
    times, positions, velocities, alive = zip(first, *knots)
    times = np.array(times)
    positions = np.stack(positions, axis=1)
    velocities = np.stack(velocities, axis=1)
    # a point never comes back to life, so its live count is its first dead knot
    stops = np.sum(alive, axis=0)
    return [Trajectory(times[:stop], positions[i, :stop], velocities[i, :stop], guidance,
                       bool(stop < len(times)))
            for i, stop in enumerate(stops)]


def transport_ensemble(state: PlaneWaveSuperposition, points, t0: float, t1: float,
                       step: float, guidance: str = PHI_BASED, *, c: float = 1.0,
                       hbar: float = 1.0, node_floor_rel: float = _NODE_FLOOR_REL) -> tuple:
    """Push many initial points through the flow at once.

    Returns (final_positions, node_mask).  A particle that reaches a node
    stops at its last defined knot and is marked; the others are unaffected.
    """
    for _, x, _, live in _rk4(state, points, t0, t1, step, guidance, c, hbar, node_floor_rel):
        pass
    return x, ~live


def sample_points_on_line(state: PlaneWaveSuperposition, origin, direction,
                          length: float, n_points: int, rng,
                          guidance: str = PHI_BASED, *, t: float = 0.0,
                          c: float = 1.0, hbar: float = 1.0) -> np.ndarray:
    """Draw points on a segment with probability proportional to the density.

    Inverse-CDF sampling on a dense tabulation of rho along
    origin + s * direction for s in [0, length].
    """
    recipe = flow_recipe(guidance)
    origin = np.asarray(origin, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    s = np.linspace(0.0, length, _LINE_SAMPLES)
    pts = origin + s[:, None] * direction
    rho, _ = CompiledState(state, c, hbar).flow(recipe, pts, t)
    ds = s[1] - s[0]
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * ds)])
    if cdf[-1] <= 0.0:
        raise FieldValidationError("density vanishes along the whole segment")
    cdf /= cdf[-1]
    u = rng.random(n_points)
    s_samples = np.interp(u, cdf, s)
    return origin + s_samples[:, None] * direction


@dataclass
class FrameConsistency:
    """Velocity comparison at one event, rest frame vs boosted frame.

    v_velocity_addition is the rest-frame guidance velocity pushed through
    the relativistic velocity map (what the boosted trajectory would do if
    trajectories transformed as world lines).  v_boosted_frame is the
    guidance velocity computed from the boosted-frame flow at the same
    event.  mismatch is their distance in units of c.
    """

    guidance: str
    x: np.ndarray
    t: float
    x_prime: np.ndarray
    t_prime: float
    v_rest: np.ndarray
    v_velocity_addition: np.ndarray
    v_boosted_frame: np.ndarray
    mismatch: float


def frame_consistency_check(state: PlaneWaveSuperposition, boost: Boost, x, t: float,
                            guidance: str = PHI_BASED, *, hbar: float = 1.0,
                            node_floor_rel: float = _NODE_FLOOR_REL) -> FrameConsistency:
    """Compare the two ways of obtaining the boosted-frame velocity at one event;
    both frames use the boost's c."""
    x = np.asarray(x, dtype=float)
    v_rest = guidance_velocity(state, x[None, :], t, guidance, c=boost.c, hbar=hbar,
                               node_floor_rel=node_floor_rel)[0]
    v_add = velocity_addition(v_rest, boost)

    x_prime, t_prime = boost_event(x, t, boost)
    boosted = boost_plane_wave(state, boost)
    v_flow = guidance_velocity(boosted, x_prime[None, :], float(t_prime), guidance,
                               c=boost.c, hbar=hbar, node_floor_rel=node_floor_rel)[0]
    return FrameConsistency(guidance, x, float(t), x_prime, float(t_prime), v_rest,
                            v_add, v_flow, float(np.linalg.norm(v_add - v_flow) / boost.c))
