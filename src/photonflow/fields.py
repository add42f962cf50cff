"""Grid representation of the free electromagnetic field in Gaussian units.

The state is carried by a single complex 3-vector field, the Weber
(Riemann-Silberstein) vector

    F = E + i B ,

sampled on a periodic cubic box of edge L with n points per axis,
x_i = i L/n.  The classical local observables are quadratic in F:

    energy density   rho_E(x) = (1/8pi) F* . F = (E^2 + B^2)/8pi
    energy flux      S(x)     = (c/8pi i) F* x F = (c/4pi) E x B .

F* x F is purely imaginary componentwise, so S is real; the Poynting
routine checks the (roundoff-level) real residue of F* x F before
discarding it.

Spin-1 matrices (s_a)_{jk} = -i eps_{ajk} are provided as constants; for
any complex 3-vectors a, b they satisfy a^dag s b = -i a* x b, which is
how the probability current is written elsewhere in the package.

Arrays are indexed [ix, iy, iz, component] in C order.  The serialized
byte order (see fieldio) runs x fastest, then y, then z.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import FieldValidationError, InternalConsistencyError, RepresentationError

POSITION = "position"
MOMENTUM = "momentum"

_REPRESENTATIONS = (POSITION, MOMENTUM)

# (SPIN[a])[j, k] = -i eps_{ajk}; these obey [s_a, s_b] = i eps_{abc} s_c.
_EPS = np.zeros((3, 3, 3))
for _a, _b, _c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_a, _b, _c] = 1.0
    _EPS[_a, _c, _b] = -1.0
SPIN = -1j * _EPS
S1, S2, S3 = SPIN[0], SPIN[1], SPIN[2]


@dataclass(frozen=True)
class GridSpec:
    """Cubic periodic grid plus the simulation unit constants.

    Parameters
    ----------
    n_per_axis : int
        Samples per axis (>= 2; powers of two recommended).
    box_length : float
        Periodic box edge L, identical on all axes.
    c : float
        Speed of light in simulation units.
    hbar : float
        Reduced Planck constant in simulation units.
    """

    n_per_axis: int
    box_length: float
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if int(self.n_per_axis) != self.n_per_axis or self.n_per_axis < 2:
            raise FieldValidationError(
                f"n_per_axis must be an integer >= 2, got {self.n_per_axis!r}")
        for name in ("box_length", "c", "hbar"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise FieldValidationError(f"{name} must be finite and > 0, got {value!r}")

    @property
    def dx(self) -> float:
        return self.box_length / self.n_per_axis

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.box_length

    @property
    def volume(self) -> float:
        return self.box_length ** 3

    def axis_coordinates(self) -> np.ndarray:
        """Grid node coordinates along one axis: 0, dx, ..., L - dx."""
        return np.arange(self.n_per_axis) * self.dx

    def position_mesh(self) -> np.ndarray:
        """(n, n, n, 3) array of node coordinates, indexed [ix, iy, iz]."""
        x = self.axis_coordinates()
        out = np.empty((self.n_per_axis,) * 3 + (3,))
        out[..., 0] = x[:, None, None]
        out[..., 1] = x[None, :, None]
        out[..., 2] = x[None, None, :]
        return out


def _check_field_array(arr, spec, name, complex_ok):
    arr = np.asarray(arr)
    n = spec.n_per_axis
    if arr.shape != (n, n, n, 3):
        raise FieldValidationError(
            f"{name} must have shape {(n, n, n, 3)}, got {arr.shape}")
    if np.iscomplexobj(arr):
        if not complex_ok:
            raise FieldValidationError(f"{name} must be real, got complex dtype")
        return np.ascontiguousarray(arr, dtype=np.complex128)
    return np.ascontiguousarray(arr, dtype=np.complex128 if complex_ok else np.float64)


@dataclass
class RealFieldPair:
    """Electric and magnetic fields sampled on a grid at one instant."""

    e_field: np.ndarray
    b_field: np.ndarray
    spec: GridSpec
    time: float = 0.0

    def __post_init__(self):
        self.e_field = _check_field_array(self.e_field, self.spec, "e_field", complex_ok=False)
        self.b_field = _check_field_array(self.b_field, self.spec, "b_field", complex_ok=False)


@dataclass
class WeberGrid:
    """Complex field F (position representation) or its transform (momentum).

    The momentum representation stores the symmetric-convention transform
    F~(k) = (2pi)^(-3/2) integral F(x) exp(-i k.x) d3x realized as a
    discrete sum with dx^3 weights (see spectral).
    """

    field: np.ndarray
    spec: GridSpec
    representation: str = POSITION
    time: float = 0.0

    def __post_init__(self):
        if self.representation not in _REPRESENTATIONS:
            raise RepresentationError(
                f"representation must be one of {_REPRESENTATIONS}, got {self.representation!r}")
        self.field = _check_field_array(self.field, self.spec, "field", complex_ok=True)

    def copy(self) -> "WeberGrid":
        return WeberGrid(self.field.copy(), self.spec, self.representation, self.time)


def _first_nonfinite(arr):
    bad = np.argwhere(~np.isfinite(arr))
    return tuple(int(i) for i in bad[0]) if bad.size else None


def weber_from_eb(fields: RealFieldPair) -> WeberGrid:
    """Package E and B into the complex vector F = E + iB (pointwise)."""
    for name, arr in (("e_field", fields.e_field), ("b_field", fields.b_field)):
        loc = _first_nonfinite(arr)
        if loc is not None:
            raise FieldValidationError(
                f"{name} is non-finite at grid index {loc[:3]}, component {loc[3]}")
    return WeberGrid(fields.e_field + 1j * fields.b_field, fields.spec,
                     POSITION, fields.time)


def eb_from_weber(weber: WeberGrid) -> RealFieldPair:
    """Split F back into E = Re F, B = Im F.

    Only meaningful in position representation: the transform of a real
    field is not real, it obeys the conjugation symmetry V~*(k) = V~(-k),
    so a real/imaginary split of the momentum field is rejected.
    """
    if weber.representation != POSITION:
        raise RepresentationError(
            "eb_from_weber requires the position representation; the momentum "
            "field has no physical real/imaginary split")
    return RealFieldPair(weber.field.real.copy(), weber.field.imag.copy(),
                         weber.spec, weber.time)


def energy_density(weber: WeberGrid) -> np.ndarray:
    """rho_E(x) = (1/8pi) F* . F, a nonnegative (n, n, n) array."""
    if weber.representation != POSITION:
        raise RepresentationError("energy_density requires the position representation")
    f = weber.field
    return (f.real ** 2 + f.imag ** 2).sum(axis=-1) / (8.0 * np.pi)


def poynting_vector(weber: WeberGrid, residue_tol: float = 1e-10) -> np.ndarray:
    """S(x) = (c/8pi i) F* x F = (c/4pi) E x B, a real (n, n, n, 3) array.

    F* x F is purely imaginary in exact (and, componentwise, in IEEE)
    arithmetic; the real residue is checked against ``residue_tol``
    relative to mean(|S|) + mean(rho_E) c before being discarded.
    """
    if weber.representation != POSITION:
        raise RepresentationError("poynting_vector requires the position representation")
    c = weber.spec.c
    cross = np.cross(weber.field.conj(), weber.field)
    s = (c / (8.0 * np.pi)) * cross.imag
    residue = (c / (8.0 * np.pi)) * np.abs(cross.real).max(initial=0.0)
    scale = np.mean(np.linalg.norm(s, axis=-1)) + np.mean(energy_density(weber)) * c
    if scale > 0 and residue > residue_tol * scale:
        raise InternalConsistencyError(
            f"Poynting vector has real residue {residue:.3e} above "
            f"{residue_tol:.1e} * scale ({scale:.3e})")
    return s


def total_energy(weber: WeberGrid) -> float:
    """Box total energy as a Riemann sum, in either representation.

    Position: sum of rho_E with dx^3 weights.  Momentum: sum of the
    spectral density (1/8pi) |F~|^2 with dk^3 = (2pi/L)^3 weights.  The
    two agree to roundoff by the Parseval identity of the transform
    convention; keeping both routes makes that identity testable.
    """
    # einsum, not a BLAS dot: same speed, and no BLAS threads left spinning
    flat = weber.field.view(np.float64)
    quad = np.einsum("xyzc,xyzc->", flat, flat) / (8.0 * np.pi)
    if weber.representation == POSITION:
        return float(quad * weber.spec.dx ** 3)
    return float(quad * weber.spec.dk ** 3)
