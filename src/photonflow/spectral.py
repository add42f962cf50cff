"""Discrete Fourier machinery and exact per-mode time evolution.

Transform convention (symmetric in 2pi):

    F~(k_n) = (dx^3 / (2pi)^(3/2)) sum_m F(x_m) exp(-i k_n . x_m)
    F(x_m)  = (dk^3 / (2pi)^(3/2)) sum_n F~(k_n) exp(+i k_n . x_m)

with k_n = (2pi/L) n for signed integers n in the FFT range and
dk^3 = (2pi/L)^3, so Parseval reads

    sum |F|^2 dx^3 = sum |F~|^2 dk^3        (exact for the DFT).

A source-free field evolves per mode by the precession equation

    dF~(k)/dt = c k x F~(k) ,

whose exact solution is a right-handed rotation of F~(k) about k-hat by
the angle k c dt.  Transverse modes (k . F~ = 0) pick up the phase
exp(-i k c dt) on the helicity component, which is what makes the
propagator exact rather than a finite-difference approximation.  Taking
a second time derivative gives the wave (Klein-Gordon, massless)
equation d2F/dt2 = c^2 lap F; klein_gordon_residual checks it with a
central difference in time against the spectral Laplacian.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import RepresentationError, TransversalityError
from .fields import MOMENTUM, POSITION, GridSpec, WeberGrid

_TWO_PI_3_2 = (2.0 * np.pi) ** 1.5

# Absolute floor used only to avoid 0/0 in residual quotients.
_RESIDUAL_FLOOR = 1e-300


class KGrid:
    """Wave vectors of the discrete Fourier modes of a GridSpec.

    Built from signed integer indices (0, 1, ..., n/2-1, -n/2, ..., -1
    per axis) so |k| values are reproducible from the indices bit-exactly.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n = spec.n_per_axis
        idx = ((np.arange(n) + n // 2) % n) - n // 2
        ii = np.empty((n, n, n, 3))
        ii[..., 0] = idx[:, None, None]
        ii[..., 1] = idx[None, :, None]
        ii[..., 2] = idx[None, None, :]
        self.mode_indices = ii.astype(np.int64)
        self.wave_vectors = spec.dk * ii
        self.k_norm = spec.dk * np.sqrt((ii ** 2).sum(axis=-1))
        with np.errstate(invalid="ignore", divide="ignore"):
            khat = np.where(self.k_norm[..., None] > 0,
                            self.wave_vectors / np.where(self.k_norm[..., None] > 0,
                                                         self.k_norm[..., None], 1.0),
                            0.0)
        self.k_hat = khat


@lru_cache(maxsize=32)
def kgrid(spec: GridSpec) -> KGrid:
    return KGrid(spec)


def _fft_forward(arr: np.ndarray, spec: GridSpec) -> np.ndarray:
    return np.fft.fftn(arr, axes=(0, 1, 2)) * (spec.dx ** 3 / _TWO_PI_3_2)


def _fft_inverse(arr: np.ndarray, spec: GridSpec) -> np.ndarray:
    return np.fft.ifftn(arr * (_TWO_PI_3_2 / spec.dx ** 3), axes=(0, 1, 2))


def forward_transform(weber: WeberGrid) -> WeberGrid:
    """Position -> momentum representation (symmetric convention above)."""
    if weber.representation != POSITION:
        raise RepresentationError("forward_transform expects a position-representation field")
    return WeberGrid(_fft_forward(weber.field, weber.spec), weber.spec,
                     MOMENTUM, weber.time)


def inverse_transform(weber: WeberGrid) -> WeberGrid:
    """Momentum -> position representation, the exact inverse of forward_transform."""
    if weber.representation != MOMENTUM:
        raise RepresentationError("inverse_transform expects a momentum-representation field")
    return WeberGrid(_fft_inverse(weber.field, weber.spec), weber.spec,
                     POSITION, weber.time)


def transversality_residual(weber: WeberGrid) -> float:
    """max over modes k != 0 of |k-hat . F~(k)|, relative to the spectral peak.

    The k = 0 mode carries no transversality constraint and is excluded.
    Normalizing by max_k |F~| instead of each mode's own |F~| keeps FFT
    rounding noise (tiny amplitude, random direction) from dominating the
    figure while a genuine longitudinal component of size alpha still
    reports at the alpha / |transverse| scale.
    """
    if weber.representation != MOMENTUM:
        raise RepresentationError("transversality_residual expects a momentum-representation field")
    kg = kgrid(weber.spec)
    f = weber.field
    longitudinal = np.abs(np.einsum("...i,...i->...", kg.k_hat, f))
    longitudinal[kg.k_norm == 0] = 0.0
    peak = np.sqrt((f.real ** 2 + f.imag ** 2).sum(axis=-1)).max()
    return float(longitudinal.max() / (peak + _RESIDUAL_FLOOR))


def project_transverse(weber: WeberGrid) -> WeberGrid:
    """F~ -> F~ - khat (khat . F~) per mode (k = 0 untouched). Idempotent."""
    if weber.representation != MOMENTUM:
        raise RepresentationError("project_transverse expects a momentum-representation field")
    kg = kgrid(weber.spec)
    f = weber.field
    longitudinal = np.einsum("...i,...i->...", kg.k_hat, f)[..., None] * kg.k_hat
    return WeberGrid(f - longitudinal, weber.spec, MOMENTUM, weber.time)


def evolve(weber: WeberGrid, dt: float, transversality_tol: float = 1e-10) -> WeberGrid:
    """Advance the field by dt with the exact per-mode propagator.

    Each mode is rotated about its own k-hat by the angle k c dt in the
    right-handed sense (Rodrigues form), the exact solution of
    dF~/dt = c k x F~.  The rotation preserves |F~(k)| per mode and the
    transversality residual; evolve(dt1) o evolve(dt2) = evolve(dt1+dt2)
    to roundoff.  dt < 0 runs the dynamics backwards.  The k = 0 mode is
    carried through unchanged.

    Parameters
    ----------
    weber : WeberGrid
        Momentum-representation state; must be transverse within
        ``transversality_tol``.
    dt : float
        Time step (any sign).
    """
    if weber.representation != MOMENTUM:
        raise RepresentationError("evolve expects a momentum-representation field")
    residual = transversality_residual(weber)
    if not residual <= transversality_tol:  # NaN fails too
        raise TransversalityError(
            f"state has transversality residual {residual:.3e} > {transversality_tol:.1e}; "
            "project_transverse it first")
    kg = kgrid(weber.spec)
    theta = kg.k_norm * weber.spec.c * dt
    cos_t = np.cos(theta)[..., None]
    sin_t = np.sin(theta)[..., None]
    f = weber.field
    khat = kg.k_hat
    k_dot_f = np.einsum("...i,...i->...", khat, f)[..., None]
    rotated = f * cos_t + np.cross(khat, f) * sin_t + khat * k_dot_f * (1.0 - cos_t)
    return WeberGrid(rotated, weber.spec, MOMENTUM, weber.time + dt)


def klein_gordon_residual(weber: WeberGrid, dt_probe: float) -> float:
    """Central-difference check of d2F/dt2 = c^2 lap F; O(dt_probe^2).

    Uses exact evolution for the time shifts and the spectral Laplacian
    (multiplication by -k^2), and reports the position-space max-norm of
    the defect.  Per mode the defect coefficient is
    (2cos(k c dt) - 2)/dt^2 + k^2 c^2 ~ k^4 c^4 dt^2 / 12, so halving
    dt_probe divides the residual by ~4.
    """
    if weber.representation != MOMENTUM:
        raise RepresentationError("klein_gordon_residual expects a momentum-representation field")
    kg = kgrid(weber.spec)
    c = weber.spec.c
    f_plus = evolve(weber, dt_probe).field
    f_minus = evolve(weber, -dt_probe).field
    second = (f_plus - 2.0 * weber.field + f_minus) / dt_probe ** 2
    laplacian = -(kg.k_norm ** 2)[..., None] * weber.field
    defect = _fft_inverse(second - c ** 2 * laplacian, weber.spec)
    return float(np.abs(defect).max())
