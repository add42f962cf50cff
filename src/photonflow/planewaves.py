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

On a periodic grid an on-grid component is a single Fourier mode, so the
momentum-representation grid field of a state is a handful of lattice
entries taken from its compiled mode arrays.  StatePlanes forms that field
one z-plane at a time as a plane source (see spectral._sweep), so the
grid passes read a state that no field holds; place writes it into a new
field.  sample_to_grid evaluates the same state at the grid nodes, the
independent route that tests compare place against.

Flow recipes, evaluated in closed form here and on the grid by photon,
both through _recipe_flow, the one evaluator of each recipe:

    phi-based    rho = phi^dag phi            J = -i c phi* x phi
    weber-based  rho_E = (1/8pi) F^dag F      S = (c/8pi i) F* x F
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import FieldValidationError, OffGridWaveVectorError
from .fields import (MOMENTUM, POSITION, FieldPlanes, GridSpec, WeberGrid, check_real,
                     plane_view)

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


def check_wave_vector(name, value) -> np.ndarray:
    """value as a float 3-vector k whose |k| = sqrt(k . k) keeps its digits.

    k . k overflows past |k| of about 1.3e154, and below about 1.5e-154 it
    is subnormal or 0; either raises FieldValidationError naming ``name``.
    """
    k = check_real(name, value, (3,))
    with np.errstate(over="ignore", under="ignore"):
        if not np.finfo(float).tiny <= k @ k < np.inf:
            raise FieldValidationError(
                f"{name} must have a length in about [1.5e-154, 1.3e154], got {k!r}")
    return k


@dataclass(frozen=True, eq=False)
class CircularPlaneWave:
    """One circularly polarized plane-wave component.

    wave_vector : 3-vector k (1/length), 1.5e-154 <~ |k| <~ 1.3e154
    intensity   : I > 0, the energy flux of the wave (Gaussian units)
    handedness  : "right" or "left"
    phase       : overall phase chi in radians
    """

    wave_vector: np.ndarray
    intensity: float
    handedness: str = RIGHT
    phase: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "wave_vector", check_wave_vector("wave_vector",
                                                                  self.wave_vector))
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


@dataclass
class PlaneWaveSuperposition:
    """A finite list of components; empty list = zero field."""

    components: List[CircularPlaneWave] = field(default_factory=list)

    def __post_init__(self):
        if not (isinstance(self.components, list)
                and all(isinstance(comp, CircularPlaneWave) for comp in self.components)):
            raise FieldValidationError(
                f"components must be a list of CircularPlaneWave, got {self.components!r}")


# recipe -> (CompiledState amplitudes of the mode sum v, norm) for _recipe_flow,
# which divides the density and the current by the same norm, so |J| <= c rho
RECIPES = {
    PHI_BASED: ("phi", 1.0),
    WEBER_BASED: ("weber", 8.0 * np.pi),
}


def flow_recipe(name) -> tuple:
    """(amplitude array for v, norm) of a recipe name."""
    if not isinstance(name, str) or name not in RECIPES:
        raise FieldValidationError(
            f"unknown flow recipe {name!r}; expected one of {sorted(RECIPES)}")
    return RECIPES[name]


def _cross(a, b) -> np.ndarray:
    """a x b on the trailing axis of size 3, written out per component: the
    bits of np.cross, without its axis moves and broadcast copies, which cost
    more than the products on a few points."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _recipe_flow(recipe: tuple, v, c: float) -> tuple:
    """(rho, J) = (|v|^2 / norm, (c / norm) Im(v* x v)) of a RECIPES entry; v* x v
    is purely imaginary componentwise, so J discards no real part.

    J is formed one component at a time into its own array, through two
    complex scratch arrays the size of one component, with _cross's
    products in _cross's order: its bits, with no (..., 3) complex product."""
    _, norm = recipe
    rho = (v.real ** 2 + v.imag ** 2).sum(axis=-1) / norm
    a, current = v.conj(), np.empty(v.shape)
    p, q = (np.empty(v.shape[:-1], dtype=complex) for _ in "pq")
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[..., j], v[..., k], out=p)
        np.subtract(p, np.multiply(a[..., k], v[..., j], out=q), out=p)
        np.multiply(c / norm, p.imag, out=current[..., i])
    return rho, current


class CompiledState:
    """A superposition compiled once into arrays over its M modes, for units (c, hbar):
    mode m adds amplitude_m exp(i (wave_vectors_m . x - frequencies_m t)).

    Components sharing (wave vector, handedness) merge into one mode, in
    first-seen order, by adding Weber amplitudes; a mode whose sum cancels
    to 1e-14 of its parts is dropped.  A component that makes a summed
    amplitude, its norm or its phi not finite raises FieldValidationError
    naming its index; a state whose density bound (density_bound) for
    either amplitude set is not finite raises it too.  phi is weber over
    sqrt(8 pi hbar c |k|), Good's weighting as photon_wavefunction applies
    it on the grid.
    """

    def __init__(self, state: PlaneWaveSuperposition, c: float = 1.0, hbar: float = 1.0):
        modes = {}  # (k, handedness) -> [first component, summed amplitude, summed norms]
        # an overflow gives inf or NaN, which would fail the cancellation test
        # below (NaN > x is False) and drop the mode as if it had cancelled
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for i, comp in enumerate(state.components):
                amplitude = comp.weber_amplitude(c)
                mode = modes.setdefault((tuple(comp.wave_vector.tolist()), comp.handedness),
                                        [comp, 0.0, 0.0])
                mode[1] += amplitude
                mode[2] += np.linalg.norm(amplitude)
                phi = mode[1] / np.sqrt(8.0 * np.pi * hbar * c * comp.k_norm)
                if not (np.isfinite(phi).all() and np.isfinite(mode[2])):
                    raise FieldValidationError(
                        f"component {i}: its Weber amplitude sqrt(4 pi I / c) or phi "
                        f"amplitude (over sqrt(8 pi hbar c |k|)) is not finite for "
                        f"I = {comp.intensity!r}, |k| = {comp.k_norm!r}, c = {c!r}, "
                        f"hbar = {hbar!r}")
        kept = [(comp, amplitude) for comp, amplitude, norms in modes.values()
                if np.linalg.norm(amplitude) > 1e-14 * norms]
        k_norm = np.array([comp.k_norm for comp, _ in kept])
        self.c = c
        self.wave_vectors = np.array([comp.sigma * comp.wave_vector for comp, _ in kept]).reshape(-1, 3)
        self.frequencies = np.array([comp.sigma for comp, _ in kept]) * (k_norm * c)
        self.weber = np.array([amplitude for _, amplitude in kept]).reshape(-1, 3)
        self.phi = self.weber / np.sqrt(8.0 * np.pi * hbar * c * k_norm)[:, None]
        # rho <= bound everywhere, so a finite bound keeps the flows from overflowing
        with np.errstate(over="ignore", invalid="ignore"):
            for recipe in RECIPES.values():
                if not np.isfinite(self.density_bound(recipe)):
                    raise FieldValidationError(
                        f"the density bound (sum of mode norms)^2 of the {recipe[0]} "
                        f"amplitudes is not finite for c = {c!r}, hbar = {hbar!r}")

    def mode_sum(self, amplitudes: str, x, t) -> np.ndarray:
        """v = sum over modes of the named amplitudes at points x (..., 3), time(s) t.

        Each phase k . x is formed elementwise, in one order for every point,
        so a point gets the same bits alone as in a batch (a BLAS x @ k may
        round a point differently with the batch around it).
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != 3:
            raise FieldValidationError(
                f"points must have a trailing axis of size 3, got shape {x.shape}")
        t = np.asarray(t, dtype=float)
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], t.shape) + (3,), dtype=complex)
        x0, x1, x2 = x[..., 0], x[..., 1], x[..., 2]
        for k, omega, amplitude in zip(self.wave_vectors, self.frequencies, getattr(self, amplitudes)):
            phase = x0 * k[0] + x1 * k[1] + x2 * k[2] - omega * t
            out += np.exp(1j * phase)[..., None] * amplitude
        return out

    def flow(self, recipe: tuple, x, t) -> tuple:
        """(rho, J) of a RECIPES entry in closed form at (x, t), cross terms included."""
        return _recipe_flow(recipe, self.mode_sum(recipe[0], x, t), self.c)

    def density_bound(self, recipe: tuple) -> float:
        """(sum of mode amplitude norms)^2 / the recipe's norm >= rho at every event."""
        amplitudes, norm = recipe
        return float(sum(np.linalg.norm(a) for a in getattr(self, amplitudes)) ** 2 / norm)


def eval_weber(state: PlaneWaveSuperposition, x, t, c: float = 1.0) -> np.ndarray:
    """Exact Weber field of the superposition at points x (..., 3) and time t."""
    return CompiledState(state, c).mode_sum("weber", x, t)


def analytic_probability_flow(state: PlaneWaveSuperposition, x, t,
                              c: float = 1.0, hbar: float = 1.0) -> tuple:
    """(rho, J) of the phi-based recipe in closed form at (x, t)."""
    return CompiledState(state, c, hbar).flow(flow_recipe(PHI_BASED), x, t)


def _check_on_grid(state: PlaneWaveSuperposition, spec: GridSpec):
    """Raise OffGridWaveVectorError unless every component wave vector sits on
    the k-lattice: integer multiples of 2pi/L per axis within the resolvable
    range |m| <= n/2 - 1, and not the k = 0 site, so that the grid transform
    of the state is supported exactly on the component modes.  A wave
    vector whose index rounds to 0 on every axis (a wave far longer than
    the box) would be placed at k = 0, where no wave is: it carries no
    nearest wave vector."""
    scale = spec.dk
    limit = spec.n_per_axis // 2 - 1
    for idx, comp in enumerate(state.components):
        m = comp.wave_vector / scale
        nearest = np.rint(m)
        clipped = np.clip(nearest, -limit, limit)
        if not nearest.any():
            raise OffGridWaveVectorError(
                f"component {idx} wave vector {comp.wave_vector.tolist()} rounds to the "
                f"k = 0 site of the k-lattice of n = {spec.n_per_axis}, "
                f"L = {spec.box_length:.6g}, whose spacing is {scale:.6g}")
        if np.abs(m - nearest).max() > 1e-9 or np.abs(nearest).max() > limit:
            raise OffGridWaveVectorError(
                f"component {idx} wave vector {comp.wave_vector.tolist()} is not on the "
                f"k-lattice of n = {spec.n_per_axis}, L = {spec.box_length:.6g} "
                f"(nearest representable: {(clipped * scale).tolist()})",
                nearest=clipped * scale)


def sample_to_grid(state: PlaneWaveSuperposition, spec: GridSpec, t: float = 0.0) -> WeberGrid:
    """Evaluate the superposition on the grid nodes at time t.

    Every component wave vector must sit on the k-lattice: an integer
    multiple of 2pi/L per axis with |m| <= n/2 - 1; otherwise
    OffGridWaveVectorError names the component and the nearest lattice vector.
    """
    _check_on_grid(state, spec)
    mesh = spec.position_mesh()
    return WeberGrid(eval_weber(state, mesh, t, spec.c), spec, POSITION, t)


class StatePlanes:
    """The z-planes of the momentum-representation grid field of an on-grid
    state at time 0, formed one at a time: a plane source like
    fields.FieldPlanes and fieldio.WeberFile, with no field behind it.

    When the source is made, the wave vectors are checked against the
    k-lattice (as for sample_to_grid) and the state is compiled at the
    spec's c and hbar; each compiled mode m is kept with its lattice site
    (the FFT index of its signed wave vector) and its entry
    L^3 (2pi)^(-3/2) weber_m.  ``reader(buffer)`` gives
    a worker run read(zs): it zero-fills the run's complex plane buffer
    ``buffer`` (shape (1, n, n, 3), payload order), adds the modes of
    z-plane zs into it with np.add.at in mode order, so that a right-handed
    k and a left-handed -k on one site add as they do in place, and
    returns it.  With a ``divisor`` it then divides the sites it added to
    by it with numpy's complex division; every other entry is the exact
    zero that 0 / divisor gives, so each plane holds the bits of
    np.divide(place(state, spec).field, divisor).  ``spec``,
    ``representation`` (momentum) and ``time`` (0) are the placed field's.
    """

    def __init__(self, state: PlaneWaveSuperposition, spec: GridSpec, divisor=None):
        _check_on_grid(state, spec)
        modes = CompiledState(state, spec.c, spec.hbar)
        index = np.rint(modes.wave_vectors / spec.dk).astype(int) % spec.n_per_axis
        values = modes.weber * (spec.box_length ** 3 / (2.0 * np.pi) ** 1.5)
        self.spec, self.representation, self.time = spec, MOMENTUM, 0.0
        self.divisor = divisor
        # z index -> the (0, iy, ix) sites of its modes in a plane buffer and
        # their entries, in mode order
        self._planes = {}
        # sorted(set()), not np.unique: numpy 2's unique imports numpy.ma
        for iz in sorted(set(index[:, 2].tolist())):
            at = index[:, 2] == iz
            self._planes[iz] = ((np.zeros(at.sum(), dtype=int), index[at, 1], index[at, 0]),
                                values[at])

    @contextmanager
    def reader(self, buffer):
        planes, divisor = self._planes, self.divisor

        def read(zs):
            buffer.fill(0.0)
            if zs.start in planes:
                sites, values = planes[zs.start]
                np.add.at(buffer, sites, values)
                if divisor is not None:
                    buffer[sites] = np.divide(buffer[sites], divisor)
            return buffer
        yield read


def place(state: PlaneWaveSuperposition, spec: GridSpec) -> WeberGrid:
    """The momentum-representation grid field of the superposition at time 0.

    An on-grid mode exp(i k.x) transforms to a single lattice entry, so each
    compiled mode m adds L^3 (2pi)^(-3/2) weber_m at the FFT index of its
    signed wave vector, and every other entry is an exact zero.  This equals
    forward_transform(sample_to_grid(state, spec)) up to the FFT's roundoff,
    without evaluating the mode sum at the n^3 nodes; evolve then gives the
    field at any other time.  The wave vectors must sit on the k-lattice, as
    for sample_to_grid.  The field is StatePlanes(state, spec) written into
    a new field plane by plane, the one route by which a state is placed.
    """
    source = StatePlanes(state, spec)
    n = spec.n_per_axis
    weber = WeberGrid(plane_view(np.empty((n, n, n, 3), dtype=complex)), spec, MOMENTUM, 0.0)
    with source.reader(np.empty((1, n, n, 3), dtype=complex)) as read, \
            FieldPlanes(weber).writer() as write:
        for iz in range(n):
            write(slice(iz, iz + 1), read(slice(iz, iz + 1)))
    return weber


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
