"""Lorentz boosts of events, wave vectors, Weber fields and flow fields.

Conventions: the boost maps rest-frame coordinates to the frame of an
observer moving with velocity u n-hat, so a wave co-propagating with the
observer is redshifted.  With beta = u/c, gamma = 1/sqrt(1 - beta^2) and
parallel/perpendicular split along n-hat:

    x'_par = gamma (x_par - u t)        t' = gamma (t - u x_par / c^2)
    w'     = gamma (w - u k_par)        k'_par = gamma (k_par - u w / c^2)

The Weber field F = E + i B mixes like E and B do:

    F' = gamma (F - i beta_vec x F) - (gamma^2 / (gamma + 1)) beta_vec (beta_vec . F)

A density/current pair (rho, J) that claims to be a four-current must obey

    rho' = gamma (rho - u J_par / c^2)      J'_par = gamma (J_par - u rho)

with J'_perp = J_perp.  The audit below tests that claim sample by sample
against direct evaluation in the boosted frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FieldValidationError, InternalConsistencyError, ZeroFieldError
from .planewaves import (PHI_BASED, CircularPlaneWave, CompiledState,
                         PlaneWaveSuperposition, flow_recipe)


@dataclass(frozen=True, eq=False)
class Boost:
    """A pure boost with speed 0 <= u < c along a unit direction."""

    direction: np.ndarray
    speed: float
    c: float = 1.0

    def __post_init__(self):
        n = np.asarray(self.direction, dtype=float)
        if n.shape != (3,) or not np.all(np.isfinite(n)) or np.linalg.norm(n) == 0.0:
            raise FieldValidationError(f"direction must be a finite nonzero 3-vector, got {n!r}")
        object.__setattr__(self, "direction", n / np.linalg.norm(n))
        if not (0.0 <= self.speed < self.c):
            raise FieldValidationError(
                f"speed must satisfy 0 <= u < c, got u = {self.speed!r}, c = {self.c!r}")

    @property
    def beta(self) -> float:
        return self.speed / self.c

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.beta ** 2)

    @property
    def velocity(self) -> np.ndarray:
        return self.speed * self.direction

    @property
    def beta_vector(self) -> np.ndarray:
        return self.beta * self.direction

    def inverse(self) -> "Boost":
        return Boost(-self.direction, self.speed, self.c)


def boost_event(x, t, boost: Boost) -> tuple:
    """Map event coordinates (x, t) to the boosted frame.  x is (..., 3)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    n = boost.direction
    g = boost.gamma
    u = boost.speed
    par = x @ n
    x_out = x + ((g - 1.0) * par - g * u * t)[..., None] * n
    t_out = g * (t - u * par / boost.c ** 2)
    return x_out, t_out


def boost_wave_vector(k, boost: Boost) -> tuple:
    """Boost a lightlike wave vector; returns (k', omega') with omega = |k| c."""
    k = np.asarray(k, dtype=float)
    n = boost.direction
    g = boost.gamma
    u = boost.speed
    omega = np.linalg.norm(k) * boost.c
    par = k @ n
    omega_out = g * (omega - u * par)
    k_out = k + ((g - 1.0) * par - g * u * omega / boost.c ** 2) * n
    return k_out, float(omega_out)


def field_boost(f, boost: Boost) -> np.ndarray:
    """Boost a Weber field value (or array of values, trailing axis 3)."""
    f = np.asarray(f, dtype=complex)
    b = boost.beta_vector
    g = boost.gamma
    cross = np.cross(np.broadcast_to(b, f.shape), f)
    return g * (f - 1j * cross) - (g ** 2 / (g + 1.0)) * (f @ b)[..., None] * b


def velocity_addition(v, boost: Boost) -> np.ndarray:
    """Relativistic velocity map into the boosted frame.  v is (..., 3)."""
    v = np.asarray(v, dtype=float)
    n = boost.direction
    u = boost.speed
    g = boost.gamma
    par = v @ n
    denom = 1.0 - u * par / boost.c ** 2
    v_par = (par - u) / denom
    v_perp = (v - par[..., None] * n) / (g * denom)[..., None]
    return v_perp + v_par[..., None] * n


def fourvector_transform_flow(rho, current, boost: Boost) -> tuple:
    """Transform (rho, J) as if (c rho, J) were a four-vector field."""
    rho = np.asarray(rho, dtype=float)
    current = np.asarray(current, dtype=float)
    n = boost.direction
    g = boost.gamma
    u = boost.speed
    par = current @ n
    rho_out = g * (rho - u * par / boost.c ** 2)
    current_out = current + ((g - 1.0) * par - g * u * rho)[..., None] * n
    return rho_out, current_out


def boost_plane_wave(state: PlaneWaveSuperposition, boost: Boost,
                     consistency_tol: float = 1e-9) -> PlaneWaveSuperposition:
    """Boost every component of a superposition into the moving frame.

    Two independent routes are evaluated per component and must agree:
    the wave-vector route fixes (k', omega') and hence I' = (omega'/omega)^2 I,
    while the field route boosts the complex Weber amplitude directly.
    The boosted amplitude must be helicity-preserving and must project
    onto the boosted-frame polarization with the predicted intensity.
    """
    out = []
    for idx, comp in enumerate(state.components):
        k_out, omega_out = boost_wave_vector(comp.wave_vector, boost)
        omega = comp.k_norm * boost.c
        intensity_out = (omega_out / omega) ** 2 * comp.intensity
        amp_out = field_boost(comp.weber_amplitude(boost.c), boost)

        k_hat_out = k_out / np.linalg.norm(k_out)
        helicity = np.cross(k_hat_out, amp_out) + 1j * amp_out
        scale = np.abs(amp_out).max()
        if np.abs(helicity).max() > consistency_tol * scale:
            raise InternalConsistencyError(
                f"component {idx}: boosted amplitude is not an eigenvector of the "
                f"helicity operator (residual {np.abs(helicity).max():.3e})")

        probe = CircularPlaneWave(k_out, 1.0, comp.handedness)
        eps_out = probe.polarization()
        z = eps_out.conj() @ amp_out / 2.0
        if np.abs(amp_out - z * eps_out).max() > consistency_tol * scale:
            raise InternalConsistencyError(
                f"component {idx}: boosted amplitude is not proportional to the "
                f"boosted-frame polarization vector")
        intensity_field = abs(z) ** 2 * boost.c / (4.0 * np.pi)
        if abs(intensity_field - intensity_out) > consistency_tol * max(intensity_out, intensity_field):
            raise InternalConsistencyError(
                f"component {idx}: field-route intensity {intensity_field!r} disagrees "
                f"with Doppler-route intensity {intensity_out!r}")

        out.append(CircularPlaneWave(k_out, intensity_out, comp.handedness,
                                     float(np.angle(z))))
    return PlaneWaveSuperposition(out)


@dataclass
class FourVectorAudit:
    """Result of checking one flow recipe against four-vector covariance.

    rho_a / current_a come from direct evaluation in the boosted frame;
    rho_b / current_b from transforming the rest-frame flow as a
    four-vector.  mismatch_field is per sample, relative to the largest
    flow magnitude seen in route b.
    """

    recipe: str
    boost: Boost
    s: np.ndarray
    x_prime: np.ndarray
    t_prime: np.ndarray
    rho_a: np.ndarray
    rho_b: np.ndarray
    current_a: np.ndarray
    current_b: np.ndarray
    mismatch_field: np.ndarray
    max_mismatch: float
    scale: float
    tolerance: float
    verdict: str


def default_sample_line(state: PlaneWaveSuperposition, boost: Boost,
                        n_samples: int = 256) -> tuple:
    """Sample points for an audit: one period along the boosted mode sum, t' = 0.

    Returns (s, x_prime, t_prime) with s the arc-length parameter.  The
    direction is the sum of the boosted wave vectors (where the
    interference term oscillates); if that sum vanishes, x-hat is used
    and the period is set by the largest boosted wavenumber.
    """
    boosted = [boost_wave_vector(comp.wave_vector, boost)[0] for comp in state.components]
    total = np.sum(boosted, axis=0)
    if np.linalg.norm(total) > 1e-12:
        direction = total / np.linalg.norm(total)
        period = 2.0 * np.pi / np.linalg.norm(total)
    else:
        direction = np.array([1.0, 0.0, 0.0])
        period = 2.0 * np.pi / max(np.linalg.norm(k) for k in boosted)
    s = np.linspace(0.0, period, n_samples, endpoint=False)
    x_prime = s[:, None] * direction
    t_prime = np.zeros_like(s)
    return s, x_prime, t_prime


def audit_four_vector(state: PlaneWaveSuperposition, boost: Boost,
                      recipe: str = PHI_BASED, *, c: float = 1.0, hbar: float = 1.0,
                      n_samples: int = 256, tolerance: float = 1e-9,
                      sample_points: Optional[tuple] = None) -> FourVectorAudit:
    """Decide whether a flow recipe transforms as a four-vector under one boost.

    Route a: boost the state (exact per-component Doppler + field boost)
    and evaluate the recipe at boosted-frame events (x', t').
    Route b: pull each event back to the rest frame, evaluate the recipe
    there, and push (rho, J) forward with the four-vector rule.
    A genuine four-current makes the two routes agree identically.
    """
    entry = flow_recipe(recipe)
    if not state.components:
        raise ZeroFieldError("cannot audit a superposition with no components")
    if sample_points is None:
        s, x_prime, t_prime = default_sample_line(state, boost, n_samples)
    else:
        s, x_prime, t_prime = sample_points
        s = np.asarray(s, dtype=float)
        x_prime = np.asarray(x_prime, dtype=float)
        t_prime = np.asarray(t_prime, dtype=float)

    boosted_state = boost_plane_wave(state, boost)
    rho_a, current_a = CompiledState(boosted_state, c, hbar).flow(entry, x_prime, t_prime)

    x_rest, t_rest = boost_event(x_prime, t_prime, boost.inverse())
    rho_rest, current_rest = CompiledState(state, c, hbar).flow(entry, x_rest, t_rest)
    rho_b, current_b = fourvector_transform_flow(rho_rest, current_rest, boost)

    scale = max(float(np.abs(c * rho_b).max()), float(np.abs(current_b).max()))
    if scale == 0.0:
        raise ZeroFieldError("flow vanishes on every sample point; audit is vacuous")
    per_point = np.maximum(np.abs(c * (rho_a - rho_b)),
                           np.abs(current_a - current_b).max(axis=-1))
    mismatch_field = per_point / scale
    max_mismatch = float(mismatch_field.max())
    verdict = "four_vector_consistent" if max_mismatch <= tolerance else "violated"
    return FourVectorAudit(recipe, boost, s, x_prime, t_prime, rho_a, rho_b,
                           current_a, current_b, mismatch_field, max_mismatch,
                           scale, tolerance, verdict)


def audit_to_json(audit: FourVectorAudit) -> dict:
    """A JSON-serializable summary of an audit, samples included."""
    return {
        "recipe": audit.recipe,
        "boost": {
            "direction": audit.boost.direction.tolist(),
            "speed": audit.boost.speed,
            "c": audit.boost.c,
        },
        "verdict": audit.verdict,
        "max_mismatch": audit.max_mismatch,
        "tolerance": audit.tolerance,
        "scale": audit.scale,
        "samples": {
            "s": audit.s.tolist(),
            "x_prime": audit.x_prime.tolist(),
            "t_prime": audit.t_prime.tolist(),
            "rho_boosted_frame": audit.rho_a.tolist(),
            "rho_fourvector": audit.rho_b.tolist(),
            "current_boosted_frame": audit.current_a.tolist(),
            "current_fourvector": audit.current_b.tolist(),
            "mismatch": audit.mismatch_field.tolist(),
        },
    }
