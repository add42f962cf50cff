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

from dataclasses import dataclass

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

# poynting_vector's bound on the real residue of F* x F, relative to its scale
_RESIDUE_TOL = 1e-10


def check_real(name, value, shape=()) -> np.ndarray:
    """value as a float array of the given shape, if it holds finite reals only.

    Anything else (bool, str, None, complex, ragged or misshapen input)
    raises FieldValidationError naming the argument; numpy scalars pass.
    """
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or arr.shape != shape or not np.isfinite(arr).all():
        raise FieldValidationError(
            f"{name} must be finite and real with shape {shape}, got {value!r}")
    return arr.astype(float)


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
        n = check_real("n_per_axis", self.n_per_axis)
        if int(n) != n or n < 2:
            raise FieldValidationError(
                f"n_per_axis must be an integer >= 2, got {self.n_per_axis!r}")
        for name in ("box_length", "c", "hbar"):
            value = getattr(self, name)
            if not check_real(name, value) > 0:
                raise FieldValidationError(f"{name} must be > 0, got {value!r}")

    @property
    def dx(self) -> float:
        return self.box_length / self.n_per_axis

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.box_length

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
        field = np.asarray(self.field)
        n = self.spec.n_per_axis
        if field.shape != (n, n, n, 3):
            raise FieldValidationError(
                f"field must have shape {(n, n, n, 3)}, got {field.shape}")
        self.field = np.ascontiguousarray(field, dtype=np.complex128)

    def copy(self) -> "WeberGrid":
        return WeberGrid(self.field.copy(), self.spec, self.representation, self.time)


def energy_density(weber: WeberGrid) -> np.ndarray:
    """rho_E(x) = (1/8pi) F* . F, a nonnegative (n, n, n) array."""
    if weber.representation != POSITION:
        raise RepresentationError("energy_density requires the position representation")
    f = weber.field
    return (f.real ** 2 + f.imag ** 2).sum(axis=-1) / (8.0 * np.pi)


def poynting_vector(weber: WeberGrid) -> np.ndarray:
    """S(x) = (c/8pi i) F* x F = (c/4pi) E x B, a real (n, n, n, 3) array.

    F* x F is purely imaginary in exact (and, componentwise, in IEEE)
    arithmetic; the real residue is checked against _RESIDUE_TOL
    relative to mean(|S|) + mean(rho_E) c before being discarded.
    """
    if weber.representation != POSITION:
        raise RepresentationError("poynting_vector requires the position representation")
    c = weber.spec.c
    cross = np.cross(weber.field.conj(), weber.field)
    s = (c / (8.0 * np.pi)) * cross.imag
    residue = (c / (8.0 * np.pi)) * np.abs(cross.real).max(initial=0.0)
    scale = np.mean(np.linalg.norm(s, axis=-1)) + np.mean(energy_density(weber)) * c
    # "not <=" so that a NaN residue or scale fails the gate; a zero field passes
    if not residue <= _RESIDUE_TOL * scale:
        raise InternalConsistencyError(
            f"Poynting vector has real residue {residue:.3e} above "
            f"{_RESIDUE_TOL:.1e} * scale ({scale:.3e})")
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
