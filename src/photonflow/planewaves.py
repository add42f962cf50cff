"""Closed-form circularly polarized plane waves and finite superpositions.

This is the exact (continuum) layer: every grid computation in the
package can be checked against it, and Lorentz boosts act on it.

A single component with wave vector k, intensity I, phase chi and
handedness sigma = +1 (right) / -1 (left) has Weber field

    F(x, t) = sqrt(4 pi I / c) eps(k-hat) exp(i sigma (k.x - k c t) + i chi)

with the complex polarization vector eps(k-hat) = e1 + i e2 built from a
deterministic orthonormal triad (e1, e2, k-hat).  Both handedness signs
use the same eps; the sense of rotation of E and B is carried by the
sign of the exponent.  eps satisfies

    k-hat x eps = -i eps ,

which is exactly the statement that F solves i dF/dt = c curl F, so each
component is Maxwellian by construction.  For propagation along +z the
triad is e1 = x-hat, e2 = y-hat and eps = (1, i, 0).

The energy-weighted wave function of a component divides its amplitude
by sqrt(8 pi hbar k c):

    phi(x, t) = sqrt(I / (2 hbar k c^2)) eps(k-hat) exp(i sigma (k.x - k c t) + i chi) .

Flow recipes evaluated here in closed form:

    phi-based    rho = phi^dag phi            J = -i c phi* x phi
    weber-based  rho_E = (1/8pi) F^dag F      S = (c/8pi i) F* x F
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import FieldValidationError, OffGridWaveVectorError
from .fields import POSITION, GridSpec, WeberGrid, check_real

RIGHT = "right"
LEFT = "left"

PHI_BASED = "phi_based"
WEBER_BASED = "weber_based"

_Z_ALIGNMENT_CUTOFF = 0.9


def polarization_basis(k_hat) -> tuple:
    """Deterministic transverse orthonormal pair (e1, e2) with e1 x e2 = k-hat.

    e1 = normalize(a x k-hat), e2 = k-hat x e1, where the auxiliary axis a
    is z-hat generically and y-hat when k-hat is within 0.9 of +-z-hat.
    The y-hat branch makes (e1, e2) = (x-hat, y-hat) exactly at k = +z-hat.
    """
    k_hat = np.asarray(k_hat, dtype=float)
    if abs(k_hat[2]) > _Z_ALIGNMENT_CUTOFF:
        a = np.array([0.0, 1.0, 0.0])
    else:
        a = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(a, k_hat)
    e1 = e1 / np.linalg.norm(e1)
    e2 = np.cross(k_hat, e1)
    return e1, e2


@dataclass(frozen=True, eq=False)
class CircularPlaneWave:
    """One circularly polarized plane-wave component.

    wave_vector : nonzero 3-vector k (1/length)
    intensity   : I > 0, the energy flux of the wave (Gaussian units)
    handedness  : "right" or "left"
    phase       : overall phase chi in radians
    """

    wave_vector: np.ndarray
    intensity: float
    handedness: str = RIGHT
    phase: float = 0.0

    def __post_init__(self):
        k = check_real("wave_vector", self.wave_vector, (3,))
        if np.linalg.norm(k) == 0.0:
            raise FieldValidationError(f"wave_vector must be nonzero, got {k!r}")
        object.__setattr__(self, "wave_vector", k)
        if not check_real("intensity", self.intensity) > 0:
            raise FieldValidationError(f"intensity must be > 0, got {self.intensity!r}")
        if self.handedness not in (RIGHT, LEFT):
            raise FieldValidationError(f"handedness must be 'right' or 'left', got {self.handedness!r}")
        check_real("phase", self.phase)

    @property
    def k_norm(self) -> float:
        return float(np.linalg.norm(self.wave_vector))

    @property
    def k_hat(self) -> np.ndarray:
        return self.wave_vector / self.k_norm

    @property
    def sigma(self) -> int:
        return 1 if self.handedness == RIGHT else -1

    def polarization(self) -> np.ndarray:
        """eps = e1 + i e2; satisfies k-hat x eps = -i eps exactly up to roundoff."""
        e1, e2 = polarization_basis(self.k_hat)
        return e1 + 1j * e2

    def weber_amplitude(self, c: float = 1.0) -> np.ndarray:
        """Complex amplitude sqrt(4 pi I / c) exp(i chi) eps at the origin event."""
        return np.sqrt(4.0 * np.pi * self.intensity / c) * np.exp(1j * self.phase) * self.polarization()

    def phi_amplitude(self, c: float = 1.0, hbar: float = 1.0) -> np.ndarray:
        """Complex amplitude sqrt(I / (2 hbar k c^2)) exp(i chi) eps at the origin event."""
        scale = np.sqrt(self.intensity / (2.0 * hbar * self.k_norm * c ** 2))
        return scale * np.exp(1j * self.phase) * self.polarization()


@dataclass
class PlaneWaveSuperposition:
    """A finite list of components; empty list = zero field."""

    components: List[CircularPlaneWave] = field(default_factory=list)


def coalesce(state: PlaneWaveSuperposition) -> PlaneWaveSuperposition:
    """Merge components sharing (wave_vector, handedness) by complex-amplitude addition.

    Amplitudes add as sqrt(I) exp(i chi); cancellations down to rounding
    level drop the component.  Keeps cross-term bookkeeping linear in
    distinct modes.
    """
    groups: dict = {}
    scales: dict = {}
    order: list = []
    for comp in state.components:
        key = (tuple(comp.wave_vector.tolist()), comp.handedness)
        if key not in groups:
            groups[key] = 0.0 + 0.0j
            scales[key] = 0.0
            order.append(key)
        groups[key] += np.sqrt(comp.intensity) * np.exp(1j * comp.phase)
        scales[key] += np.sqrt(comp.intensity)
    merged = []
    for key in order:
        amp = groups[key]
        if abs(amp) <= 1e-14 * scales[key]:
            continue
        k, handedness = key
        merged.append(CircularPlaneWave(np.array(k), float(abs(amp) ** 2),
                                        handedness, float(np.angle(amp))))
    return PlaneWaveSuperposition(merged)


# recipe -> (CompiledState amplitudes of the mode sum v, density norm, current norm)
# with rho = |v|^2 / density norm, J = (c / current norm) Im(v* x v).  Both norms
# are 1/s; |J| <= c rho holds only while current norm >= density norm.
RECIPES = {
    PHI_BASED: ("phi", 1.0, 1.0),
    WEBER_BASED: ("weber", 8.0 * np.pi, 8.0 * np.pi),
}


def flow_recipe(name) -> tuple:
    """(amplitude array for v, density norm, current norm) of a recipe name."""
    if not isinstance(name, str) or name not in RECIPES:
        raise FieldValidationError(
            f"unknown flow recipe {name!r}; expected one of {sorted(RECIPES)}")
    return RECIPES[name]


class CompiledState:
    """A superposition coalesced once into arrays over its M modes, for units (c, hbar):
    mode m adds amplitude_m exp(i (wave_vectors_m . x - frequencies_m t))."""

    def __init__(self, state: PlaneWaveSuperposition, c: float = 1.0, hbar: float = 1.0):
        comps = coalesce(state).components
        self.c = c
        self.wave_vectors = np.array([comp.sigma * comp.wave_vector for comp in comps]).reshape(-1, 3)
        self.frequencies = np.array([comp.sigma * (comp.k_norm * c) for comp in comps])
        self.phi = np.array([comp.phi_amplitude(c, hbar) for comp in comps]).reshape(-1, 3)
        self.weber = np.array([comp.weber_amplitude(c) for comp in comps]).reshape(-1, 3)

    def mode_sum(self, amplitudes: str, x, t) -> np.ndarray:
        """v = sum over modes of the named amplitudes at points x (..., 3), time(s) t."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 3:
            raise FieldValidationError(
                f"points must have a trailing axis of size 3, got shape {x.shape}")
        t = np.asarray(t, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], t.shape) + (3,), dtype=complex)
        for k, omega, amplitude in zip(self.wave_vectors, self.frequencies, getattr(self, amplitudes)):
            out += np.exp(1j * (x @ k - omega * t))[..., None] * amplitude
        return out

    def flow(self, recipe: tuple, x, t) -> tuple:
        """(rho, J) of a RECIPES entry in closed form at (x, t), cross terms included."""
        amplitudes, density_norm, current_norm = recipe
        v = self.mode_sum(amplitudes, x, t)
        rho = (v.real ** 2 + v.imag ** 2).sum(axis=-1) / density_norm
        return rho, (self.c / current_norm) * np.cross(v.conj(), v).imag

    def density_bound(self, recipe: tuple) -> float:
        """(sum of mode amplitude norms)^2 / density norm >= rho at every event."""
        amplitudes, density_norm, _ = recipe
        return float(sum(np.linalg.norm(a) for a in getattr(self, amplitudes)) ** 2 / density_norm)


def eval_weber(state: PlaneWaveSuperposition, x, t, c: float = 1.0) -> np.ndarray:
    """Exact Weber field of the superposition at points x (..., 3) and time t."""
    return CompiledState(state, c).mode_sum("weber", x, t)


def analytic_probability_flow(state: PlaneWaveSuperposition, x, t,
                              c: float = 1.0, hbar: float = 1.0) -> tuple:
    """(rho, J) of the phi-based recipe in closed form at (x, t)."""
    return CompiledState(state, c, hbar).flow(flow_recipe(PHI_BASED), x, t)


def analytic_weber_flow(state: PlaneWaveSuperposition, x, t, c: float = 1.0) -> tuple:
    """(rho_E, S) = energy density and Poynting flux in closed form at (x, t)."""
    return CompiledState(state, c).flow(flow_recipe(WEBER_BASED), x, t)


def sample_to_grid(state: PlaneWaveSuperposition, spec: GridSpec, t: float = 0.0) -> WeberGrid:
    """Evaluate the superposition on the grid nodes at time t.

    Every component wave vector must sit on the k-lattice (integer
    multiples of 2pi/L per axis, within the resolvable range |m| <= n/2 - 1)
    so that the transform of the result is supported exactly on the
    component modes.
    """
    scale = 2.0 * np.pi / spec.box_length
    limit = spec.n_per_axis // 2 - 1
    for idx, comp in enumerate(state.components):
        m = comp.wave_vector / scale
        nearest = np.rint(m)
        clipped = np.clip(nearest, -limit, limit)
        if np.abs(m - nearest).max() > 1e-9 or np.abs(nearest).max() > limit:
            raise OffGridWaveVectorError(
                f"component {idx} wave vector {comp.wave_vector.tolist()} is not on the "
                f"k-lattice of n = {spec.n_per_axis}, L = {spec.box_length:.6g} "
                f"(nearest representable: {(clipped * scale).tolist()})",
                nearest=clipped * scale)
    mesh = spec.position_mesh()
    return WeberGrid(eval_weber(state, mesh, t, spec.c), spec, POSITION, t)


# --- built-in states ---------------------------------------------------------

def single_wave(wavenumber: float = 1.0, intensity: float = 1.0) -> PlaneWaveSuperposition:
    """One right-handed wave along +z: F = sqrt(4 pi I / c) (1, i, 0) e^{i k (z - c t)}."""
    return PlaneWaveSuperposition([
        CircularPlaneWave(np.array([0.0, 0.0, float(wavenumber)]), intensity, RIGHT, 0.0),
    ])


def counterprop_pair(k_right: float = 1.0, k_left: float = 2.0,
                     intensity: float = 1.0) -> PlaneWaveSuperposition:
    """Right-handed wave along +z plus left-handed wave along -z, equal intensity.

    The left component's polarization convention makes its field
    sqrt(4 pi I / c) (1, -i, 0) e^{i k_left (z + c t)}; the pi phase
    offsets the basis sign at k-hat = -z-hat.
    """
    return PlaneWaveSuperposition([
        CircularPlaneWave(np.array([0.0, 0.0, float(k_right)]), intensity, RIGHT, 0.0),
        CircularPlaneWave(np.array([0.0, 0.0, -float(k_left)]), intensity, LEFT, np.pi),
    ])


def copropagating_pair(k_one: float = 1.0, k_two: float = 2.0,
                       intensity: float = 1.0) -> PlaneWaveSuperposition:
    """Two right-handed waves along +z with different wavenumbers.

    With equal intensities the total field F vanishes on the planes where
    the two phases are opposite, while the energy-weighted wave function
    does not (its 1/sqrt(k) weights break the cancellation) - the standard
    demonstration that the probability density can be nonzero where E and
    B both vanish.
    """
    return PlaneWaveSuperposition([
        CircularPlaneWave(np.array([0.0, 0.0, float(k_one)]), intensity, RIGHT, 0.0),
        CircularPlaneWave(np.array([0.0, 0.0, float(k_two)]), intensity, RIGHT, 0.0),
    ])


PRESETS = {
    "single-wave": single_wave,
    "counterprop-pair": counterprop_pair,
    "copropagating-pair": copropagating_pair,
}
