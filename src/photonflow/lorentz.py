"""Lorentz boosts of four-vectors, Weber fields and plane-wave states.

Conventions: the boost maps rest-frame coordinates to the frame of an
observer moving with velocity u n-hat, so a wave co-propagating with the
observer is redshifted.  With beta = u/c, gamma = 1/sqrt(1 - beta^2) and
parallel/perpendicular split along n-hat, boost_event is the one
four-vector transformation:

    x'_par = gamma (x_par - u t)        t' = gamma (t - u x_par / c^2)

with x'_perp = x_perp.  A wave vector enters it as (x, t) = (k, omega/c^2),
a velocity as (v, 1), and a density/current pair claimed to be a
four-current as (J, rho).  The Weber field F = E + i B is a bivector, not
a four-vector, and mixes like E and B do:

    F' = gamma (F - i beta_vec x F) - (gamma^2 / (gamma + 1)) beta_vec (beta_vec . F)

The audit below tests the four-current claim of a flow sample by sample
against direct evaluation in the boosted frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FieldValidationError, InternalConsistencyError, ZeroFieldError
from .fields import check_real
from .planewaves import (PHI_BASED, CircularPlaneWave, CompiledState, PlaneWaveSuperposition,
                         _cross, check_wave_vector, flow_recipe, polarization_basis)

# relative tolerance within which boost_plane_wave's two routes must agree
_CONSISTENCY_TOL = 1e-9
# default mismatch below which audit_four_vector calls a recipe four-vector consistent
_AUDIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Boost:
    """A pure boost with speed 0 <= u < c along a unit direction."""

    direction: np.ndarray
    speed: float
    c: float = 1.0

    def __post_init__(self):
        n = check_real("direction", self.direction, (3,))
        if np.linalg.norm(n) == 0.0:
            raise FieldValidationError(f"direction must be nonzero, got {n!r}")
        object.__setattr__(self, "direction", n / np.linalg.norm(n))
        if not (0.0 <= check_real("speed", self.speed) < check_real("c", self.c)):
            raise FieldValidationError(
                f"speed must satisfy 0 <= u < c, got u = {self.speed!r}, c = {self.c!r}")

    @property
    def beta(self) -> float:
        return self.speed / self.c

    @property
    def gamma(self) -> float:
        return 1.0 / np.sqrt(1.0 - self.beta ** 2)

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
    k_out, t_out = boost_event(k, np.linalg.norm(k) / boost.c, boost)
    return k_out, float(boost.c ** 2 * t_out)


def field_boost(f, boost: Boost) -> np.ndarray:
    """Boost a Weber field value (or array of values, trailing axis 3)."""
    f = np.asarray(f, dtype=complex)
    b = boost.beta_vector
    g = boost.gamma
    return g * (f - 1j * _cross(b, f)) - (g ** 2 / (g + 1.0)) * (f @ b)[..., None] * b


def velocity_addition(v, boost: Boost) -> np.ndarray:
    """Relativistic velocity map into the boosted frame.  v is (..., 3)."""
    x_out, t_out = boost_event(v, 1.0, boost)
    return x_out / t_out[..., None]


def fourvector_transform_flow(rho, current, boost: Boost) -> tuple:
    """Transform (rho, J) as if (c rho, J) were a four-vector field."""
    current_out, rho_out = boost_event(current, rho, boost)
    return rho_out, current_out


def boost_plane_wave(state: PlaneWaveSuperposition, boost: Boost) -> PlaneWaveSuperposition:
    """Boost every component of a superposition into the moving frame.

    Two independent routes are evaluated per component and must agree:
    the wave-vector route fixes (k', omega') and hence I' = (omega'/omega)^2 I,
    while the field route boosts the complex Weber amplitude directly.
    The boosted amplitude must be helicity-preserving and must project
    onto the boosted-frame polarization with the predicted intensity.
    A component whose boosted wave vector has a length out of
    CircularPlaneWave's range, or whose boosted intensity or amplitude is not
    finite, raises FieldValidationError naming it.
    """
    out = []
    for idx, comp in enumerate(state.components):
        k_out, omega_out = boost_wave_vector(comp.wave_vector, boost)
        check_wave_vector(f"component {idx}: its boosted wave vector", k_out)
        omega = comp.k_norm * boost.c
        # a wave near the float limit, boosted against its motion, overflows here:
        # it is rejected before the two routes are compared
        with np.errstate(over="ignore", invalid="ignore"):
            intensity_out = (omega_out / omega) ** 2 * comp.intensity
            amp_out = field_boost(comp.weber_amplitude(boost.c), boost)
            if not (np.isfinite(intensity_out) and np.isfinite(np.vdot(amp_out, amp_out))):
                raise FieldValidationError(
                    f"component {idx}: its boosted intensity {intensity_out!r} or squared "
                    f"Weber amplitude |F'|^2 is not finite (I = {comp.intensity!r}, "
                    f"u = {boost.speed!r}, c = {boost.c!r})")

            k_hat_out = k_out / np.linalg.norm(k_out)
            helicity = _cross(k_hat_out, amp_out) + 1j * amp_out
            scale = np.abs(amp_out).max()
            if np.abs(helicity).max() > _CONSISTENCY_TOL * scale:
                raise InternalConsistencyError(
                    f"component {idx}: boosted amplitude is not an eigenvector of the "
                    f"helicity operator (residual {np.abs(helicity).max():.3e})")

            e1, e2 = polarization_basis(k_hat_out)
            eps_out = e1 + 1j * e2
            # the helicity eigenvectors about k-hat' are the multiples of eps_out,
            # so the guard above already makes amp_out = z eps_out; |z|^2 c may
            # overflow where I' does not, and an infinite intensity_field passes below
            z = eps_out.conj() @ amp_out / 2.0
            intensity_field = abs(z) ** 2 * boost.c / (4.0 * np.pi)
        if abs(intensity_field - intensity_out) > _CONSISTENCY_TOL * max(intensity_out, intensity_field):
            raise InternalConsistencyError(
                f"component {idx}: field-route intensity {float(intensity_field)!r} "
                f"disagrees with Doppler-route intensity {float(intensity_out)!r}")

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


def default_sample_line(boosted: PlaneWaveSuperposition, n_samples: int = 256) -> tuple:
    """Sample points for an audit of the boosted state: one period along its mode sum, t' = 0.

    Returns (s, x_prime, t_prime) with s the arc-length parameter.  The
    direction is the sum of the boosted wave vectors (where the
    interference term oscillates); if that sum vanishes, x-hat is used
    and the period is set by the largest boosted wavenumber.
    """
    wave_vectors = [comp.wave_vector for comp in boosted.components]
    total = np.sum(wave_vectors, axis=0)
    if np.linalg.norm(total) > 1e-12:
        direction = total / np.linalg.norm(total)
        period = 2.0 * np.pi / np.linalg.norm(total)
    else:
        direction = np.array([1.0, 0.0, 0.0])
        period = 2.0 * np.pi / max(np.linalg.norm(k) for k in wave_vectors)
    s = np.linspace(0.0, period, n_samples, endpoint=False)
    x_prime = s[:, None] * direction
    t_prime = np.zeros_like(s)
    return s, x_prime, t_prime


def audit_four_vector(state: PlaneWaveSuperposition, boost: Boost,
                      recipe: str = PHI_BASED, *, hbar: float = 1.0,
                      n_samples: int = 256, tolerance: float = _AUDIT_TOL) -> FourVectorAudit:
    """Decide whether a flow recipe transforms as a four-vector under one boost.

    Route a: boost the state (exact per-component Doppler + field boost)
    and evaluate the recipe at boosted-frame events (x', t').
    Route b: pull each event back to the rest frame, evaluate the recipe
    there, and push (rho, J) forward with the four-vector rule.
    A genuine four-current makes the two routes agree identically.
    Both frames use the boost's c.
    """
    entry = flow_recipe(recipe)
    if not state.components:
        raise ZeroFieldError("cannot audit a superposition with no components")
    c = boost.c
    boosted_state = boost_plane_wave(state, boost)
    s, x_prime, t_prime = default_sample_line(boosted_state, n_samples)
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
    """A summary of an audit for fieldio.write_json, samples included.

    The per-sample values stay float64 arrays (s, t', rho and the mismatch
    of shape (n,); x', J of shape (n, 3)), which write_json writes as the
    lists their tolist() gives; everything else is a plain JSON value.
    """
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
            "s": audit.s,
            "x_prime": audit.x_prime,
            "t_prime": audit.t_prime,
            "rho_boosted_frame": audit.rho_a,
            "rho_fourvector": audit.rho_b,
            "current_boosted_frame": audit.current_a,
            "current_fourvector": audit.current_b,
            "mismatch": audit.mismatch_field,
        },
    }
