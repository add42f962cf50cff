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

KGrid holds the wave vectors of a grid as three broadcast axes kx, ky, kz
plus two (n, n, n) arrays, |k| and 1/|k| (0 at k = 0).  evolve and
transversality_residual share one kernel that walks the field in slabs
of a few x-planes: per slab it forms k . F~ once and uses it for the
NaN-closed transversality gate and for the rotation, whose output goes
straight into one preallocated array, so the kernel's other temporaries
are slab-sized.  Each slab is copied before its rotated values are
written, so that array may be the input itself: evolve(w, dt,
in_place=True) advances w itself and allocates nothing full-size.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import FieldValidationError, TransversalityError
from .fields import (MOMENTUM, POSITION, GridSpec, WeberGrid, check_real,
                     require_representation)

_TWO_PI_3_2 = (2.0 * np.pi) ** 1.5

# Absolute floor used only to avoid 0/0 in residual quotients.
_RESIDUAL_FLOOR = 1e-300

# x-planes per slab of the one-pass kernel (_sweep).  At n = 128 a slab
# temporary is 0.5 MiB; 1 and 2 planes ran fastest there, 4 and 8 slower.
_SLAB_PLANES = 2

# default transversality residual that evolve accepts
_TRANSVERSALITY_TOL = 1e-10


class KGrid:
    """Wave vectors of the discrete Fourier modes of a GridSpec.

    Built from signed integer indices (0, 1, ..., n/2-1, -n/2, ..., -1
    per axis) so |k| values are reproducible from the indices bit-exactly.
    ``kx``, ``ky``, ``kz`` are the wave-vector components as broadcast axes
    of shapes (n, 1, 1), (1, n, 1) and (1, 1, n); ``k_norm`` is |k| and
    ``inv_k`` is 1/|k| (0 at k = 0), the only (n, n, n) arrays held.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n = spec.n_per_axis
        idx = ((np.arange(n) + n // 2) % n) - n // 2
        axis = spec.dk * idx
        self.kx, self.ky, self.kz = (axis.reshape(shape)
                                     for shape in ((n, 1, 1), (1, n, 1), (1, 1, n)))
        sq = idx.astype(float) ** 2
        self.k_norm = spec.dk * np.sqrt(sq[:, None, None] + sq[None, :, None] + sq[None, None, :])
        self.inv_k = np.divide(1.0, self.k_norm, out=np.zeros_like(self.k_norm),
                               where=self.k_norm > 0)

    @property
    def wave_vectors(self) -> np.ndarray:
        """(n, n, n, 3) wave vectors, built on each access."""
        return np.stack(np.broadcast_arrays(self.kx, self.ky, self.kz), axis=-1)

    @property
    def k_hat(self) -> np.ndarray:
        """(n, n, n, 3) unit wave vectors (0 at k = 0), built on each access."""
        k, norm = self.wave_vectors, self.k_norm[..., None]
        return np.divide(k, norm, out=np.zeros_like(k), where=norm > 0)


@lru_cache(maxsize=32)
def kgrid(spec: GridSpec) -> KGrid:
    return KGrid(spec)


def _fft_forward(arr: np.ndarray, spec: GridSpec) -> np.ndarray:
    out = np.fft.fftn(arr, axes=(0, 1, 2))
    out *= spec.dx ** 3 / _TWO_PI_3_2
    return out


def _fft_inverse(arr: np.ndarray, spec: GridSpec) -> np.ndarray:
    return np.fft.ifftn(arr * (_TWO_PI_3_2 / spec.dx ** 3), axes=(0, 1, 2))


def forward_transform(weber: WeberGrid) -> WeberGrid:
    """Position -> momentum representation (symmetric convention above)."""
    require_representation(weber, POSITION, "forward_transform")
    return WeberGrid(_fft_forward(weber.field, weber.spec), weber.spec,
                     MOMENTUM, weber.time)


def inverse_transform(weber: WeberGrid) -> WeberGrid:
    """Momentum -> position representation, the exact inverse of forward_transform."""
    require_representation(weber, MOMENTUM, "inverse_transform")
    return WeberGrid(_fft_inverse(weber.field, weber.spec), weber.spec,
                     POSITION, weber.time)


def _sweep(weber: WeberGrid, c_dt=None, in_place=False):
    """One slab-wise pass over a momentum field: (residual, rotated).

    ``residual`` is the transversality residual; ``rotated`` is the field
    with each mode rotated about k-hat by the angle |k| c_dt, or None when
    c_dt is None.  Per slab of x-planes the kernel forms k . F~ once and
    uses it for both.  ``rotated`` is ``weber.field`` itself when
    ``in_place`` (a slab is read before it is overwritten), else a new
    array: that is the only full-size array the kernel allocates.
    """
    kg = kgrid(weber.spec)
    f = weber.field
    flat = f.view(np.float64)
    rotated = None
    if c_dt is not None:
        rotated = f if in_place else np.empty_like(f)
    longitudinal = peak_sq = 0.0
    # non-finite entries give NaN products here; the residual reports them
    with np.errstate(invalid="ignore", over="ignore"):
        for start in range(0, weber.spec.n_per_axis, _SLAB_PLANES):
            xs = slice(start, start + _SLAB_PLANES)
            g = np.moveaxis(f[xs], -1, 0).copy()  # components of the slab, contiguous
            k = (kg.kx[xs], kg.ky, kg.kz)
            inv_k = kg.inv_k[xs]
            k_dot_f = k[0] * g[0] + k[1] * g[1] + k[2] * g[2]
            # np.maximum, not max(): max(0.0, nan) is 0.0, and a NaN must reach the gate
            longitudinal = np.maximum(longitudinal, (np.abs(k_dot_f) * inv_k).max())
            peak_sq = np.maximum(peak_sq, np.einsum("...i,...i->...", flat[xs], flat[xs]).max())
            if rotated is None:
                continue
            # Rodrigues with the unnormalized k, 1/|k| folded into the weights:
            # F~ cos + (k x F~) sin / |k| + k (k . F~) (1 - cos) / |k|^2
            theta = kg.k_norm[xs] * c_dt
            cos = np.cos(theta)
            sin_k = np.sin(theta) * inv_k
            along = k_dot_f * ((1.0 - cos) * inv_k ** 2)
            for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                term = k[j] * g[l]
                term -= k[l] * g[j]
                term *= sin_k
                term += k[i] * along
                term += cos * g[i]
                rotated[xs, ..., i] = term
    peak = np.sqrt(peak_sq)
    # an infinite peak would scale any longitudinal part to 0: report NaN so gates fail
    residual = longitudinal / (peak + _RESIDUAL_FLOOR) if np.isfinite(peak) else np.nan
    return float(residual), rotated


def transversality_residual(weber: WeberGrid) -> float:
    """max over modes k != 0 of |k-hat . F~(k)|, relative to the spectral peak.

    The k = 0 mode carries no transversality constraint and is excluded.
    Normalizing by max_k |F~| instead of each mode's own |F~| keeps FFT
    rounding noise (tiny amplitude, random direction) from dominating the
    figure while a genuine longitudinal component of size alpha still
    reports at the alpha / |transverse| scale.  Any non-finite entry makes
    the residual NaN.
    """
    require_representation(weber, MOMENTUM, "transversality_residual")
    return _sweep(weber)[0]


def project_transverse(weber: WeberGrid) -> WeberGrid:
    """F~ -> F~ - khat (khat . F~) per mode (k = 0 untouched). Idempotent."""
    require_representation(weber, MOMENTUM, "project_transverse")
    kg = kgrid(weber.spec)
    f = weber.field
    # k / |k| by division, so an axis-aligned mode gets an exact unit vector
    # and a second projection removes nothing
    k_hat = [np.divide(k, kg.k_norm, out=np.zeros_like(kg.k_norm), where=kg.k_norm > 0)
             for k in (kg.kx, kg.ky, kg.kz)]
    along = k_hat[0] * f[..., 0] + k_hat[1] * f[..., 1] + k_hat[2] * f[..., 2]
    projected = f.copy()
    for i, k in enumerate(k_hat):
        projected[..., i] -= k * along
    return WeberGrid(projected, weber.spec, MOMENTUM, weber.time)


def evolve(weber: WeberGrid, dt: float,
           transversality_tol: float = _TRANSVERSALITY_TOL, *,
           in_place: bool = False) -> WeberGrid:
    """Advance the field by dt with the exact per-mode propagator.

    Each mode is rotated about its own k-hat by the angle k c dt in the
    right-handed sense (Rodrigues form), the exact solution of
    dF~/dt = c k x F~.  The rotation preserves |F~(k)| per mode and the
    transversality residual; evolve(dt1) o evolve(dt2) = evolve(dt1+dt2)
    to roundoff.  dt < 0 runs the dynamics backwards.  The k = 0 mode is
    carried through unchanged.  The transversality gate and the rotation
    share one slab-wise pass; a state that fails the gate is discarded.
    dt == 0 runs the gate alone and returns ``weber`` itself, not a copy.

    Parameters
    ----------
    weber : WeberGrid
        Momentum-representation state; must be transverse within
        ``transversality_tol``.
    dt : float
        Time step (any sign).  A non-finite dt, or one that turns the
        largest mode by a non-finite angle, raises FieldValidationError
        before anything is written.
    in_place : bool
        False (default): return a new WeberGrid and leave ``weber`` as it
        is.  True: rotate ``weber.field`` in place, advance ``weber.time``
        by dt once the gate has passed, and return ``weber`` itself, so
        no second WeberGrid shares the buffer.  A read-only field raises
        FieldValidationError before anything is written.  After a
        TransversalityError the field holds rotated values at the old
        time: discard it.
    """
    require_representation(weber, MOMENTUM, "evolve")
    if in_place and not weber.field.flags.writeable:
        raise FieldValidationError("evolve(in_place=True) got a read-only field")
    dt = float(check_real("dt", dt))
    c_dt = float(weber.spec.c) * dt  # Python floats: an overflow gives inf, not a warning
    if not math.isfinite(float(kgrid(weber.spec).k_norm.max()) * abs(c_dt)):
        raise FieldValidationError(
            f"dt = {dt!r} turns the largest mode by a non-finite angle |k| c dt")
    residual, rotated = _sweep(weber, None if dt == 0 else c_dt, in_place)
    if not residual <= transversality_tol:  # NaN fails too
        raise TransversalityError(
            f"state has transversality residual {residual:.3e} > {transversality_tol:.1e}; "
            "project_transverse it first")
    if rotated is None:
        return weber
    if in_place:
        weber.time += dt
        return weber
    return WeberGrid(rotated, weber.spec, MOMENTUM, weber.time + dt)


def klein_gordon_residual(weber: WeberGrid, dt_probe: float) -> float:
    """Central-difference check of d2F/dt2 = c^2 lap F; O(dt_probe^2).

    Uses exact evolution for the time shifts and the spectral Laplacian
    (multiplication by -k^2), and reports the position-space max-norm of
    the defect.  Per mode the defect coefficient is
    (2cos(k c dt) - 2)/dt^2 + k^2 c^2 ~ k^4 c^4 dt^2 / 12, so halving
    dt_probe divides the residual by ~4.
    """
    require_representation(weber, MOMENTUM, "klein_gordon_residual")
    kg = kgrid(weber.spec)
    c = weber.spec.c
    f_plus = evolve(weber, dt_probe).field
    f_minus = evolve(weber, -dt_probe).field
    second = (f_plus - 2.0 * weber.field + f_minus) / dt_probe ** 2
    laplacian = -(kg.k_norm ** 2)[..., None] * weber.field
    defect = _fft_inverse(second - c ** 2 * laplacian, weber.spec)
    return float(np.abs(defect).max())
