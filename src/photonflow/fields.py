"""Grid representation of the free electromagnetic field in Gaussian units.

The state is carried by a single complex 3-vector field, the Weber
(Riemann-Silberstein) vector

    F = E + i B ,

sampled on a periodic cubic box of edge L with n points per axis,
x_i = i L/n.  Its energy density and flux are the weber-based flow recipe
(photon.weber_probability_flow); total_energy sums the density over the box.

Arrays are indexed [ix, iy, iz, component].  A WeberGrid holds its field
in the byte order of the PHWF1 payload (see fieldio): component fastest,
then x, then y, then z.  plane_view(field), indexed [iz, iy, ix, component],
is then C-contiguous: its z-planes are the payload's planes, and the plane
loops (over_planes) walk contiguous runs of them.  Only the strides carry
this order; every routine indexes field[ix, iy, iz, c].
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import FieldValidationError, RangeError, RepresentationError

POSITION = "position"
MOMENTUM = "momentum"

_REPRESENTATIONS = (POSITION, MOMENTUM)

# The supported range of c and hbar.  Beyond it the closed forms under- or
# overflow on ordinary inputs: c^2 in a boost, I / c in a wave amplitude,
# hbar c |k| in Good's weight (c = 1e-300 makes c^2 zero).
_UNIT_RANGE = (1e-100, 1e100)

# The supported range of the box length L.  Within it dx^3 = (L/n)^3 and
# dk^3 = (2pi/L)^3 are finite, normal floats for every n GridSpec takes
# (n < 2^63), and so are the lattice sums of a unit-intensity state in unit
# c and hbar: sum |F~|^2 / |k|, the photon number's, grows as L^7.
_BOX_LENGTH_RANGE = (1e-40, 1e40)

# threads that share a plane loop (over_planes): the process's CPUs, at most 2
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


def require_representation(carrier, representation: str, caller: str) -> None:
    """Raise RepresentationError unless ``carrier`` (a field or a wave function)
    is in ``representation``; the message names ``caller``."""
    if carrier.representation != representation:
        raise RepresentationError(f"{caller} expects the {representation} representation, "
                                  f"got {carrier.representation!r}")


def plane_view(field: np.ndarray) -> np.ndarray:
    """field[ix, iy, iz, c] seen as [iz, iy, ix, c]; C-contiguous for a WeberGrid's field.

    The view is its own inverse: plane_view of a C-ordered [iz, iy, ix, c]
    array is a field in payload order.
    """
    return field.transpose(2, 1, 0, 3)


def over_planes(n: int, work) -> list:
    """Run work(run) over contiguous runs of the one-plane slices of n planes.

    slice(0, 1), ..., slice(n - 1, n) are split into at most _WORKERS
    contiguous runs.  The caller's thread works the first run and one
    started thread each other run; all are joined before this returns, and
    an exception raised by work is re-raised here (the first run's first).
    work loops over its run itself and keeps its plane temporaries in
    buffers it allocates once per run, writing into them with out=: a
    plane-sized temporary allocated and freed inside the loop lies at the
    top of the heap, where the allocator trims it, so each next plane
    faults the same pages in again.  It returns its per-plane
    records, or None; the records come back in plane order.  work must call
    no public photonflow function (a traced run keeps one span stack for
    all threads), and enters its own numpy errstate where it needs one
    (errstate is per thread).
    """
    slices = [slice(i, i + 1) for i in range(n)]
    count = max(1, min(_WORKERS, n))  # n = 0: one empty run
    cuts = [n * i // count for i in range(count + 1)]
    records, errors = [None] * count, [None] * count

    def run(i):
        try:
            records[i] = work(slices[cuts[i]:cuts[i + 1]])
        except BaseException as exc:  # re-raised in the caller below
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, count)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return [record for part in records if part is not None for record in part]


class FieldPlanes:
    """The z-planes of a WeberGrid's field, read and written one at a time.

    The plane loop of spectral reads a field through ``reader(buffer)`` and
    writes through ``writer()``, one context per worker run; fieldio.WeberFile
    does the same for a PHWF1 file's payload and planewaves.StatePlanes for
    a plane-wave state that no field holds.  ``buffer`` is the run's complex
    plane buffer of shape (1, n, n, 3), in payload order.  ``read(zs)``
    copies the plane view's z-planes ``zs`` into it and returns it, so a
    reader never hands out the field's own planes; ``write(zs, plane)``
    stores ``plane`` there.  Unlike the other two sources it takes no
    divisor: a field is normalized whole (photon.normalize_single_photon).
    ``spec``, ``representation`` and ``time`` are the field's.
    """

    def __init__(self, weber: WeberGrid):
        self.spec, self.representation, self.time = weber.spec, weber.representation, weber.time
        self._planes = plane_view(weber.field)

    @contextmanager
    def reader(self, buffer):
        planes = self._planes

        def read(zs):
            np.copyto(buffer, planes[zs])
            return buffer
        yield read

    @contextmanager
    def writer(self):
        planes = self._planes

        def write(zs, plane):
            planes[zs] = plane
        yield write


def sum_in_order(records):
    """0.0 + records[0] + records[1] + ..., added one at a time in order.

    Per-plane records added in plane order give the same bits for any
    worker count; builtin sum() (compensated since Python 3.12) and
    math.fsum round differently.
    """
    total = 0.0
    for record in records:
        total = total + record
    return total


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
        Periodic box edge L, identical on all axes, in _BOX_LENGTH_RANGE.
    c : float
        Speed of light in simulation units, in _UNIT_RANGE.
    hbar : float
        Reduced Planck constant in simulation units, in _UNIT_RANGE.

    A value of the wrong type raises FieldValidationError, and a finite
    value outside its range RangeError; both name the argument.
    """

    n_per_axis: int
    box_length: float
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        n = np.asarray(self.n_per_axis)
        if n.dtype.kind not in "iu" or n.shape != () or n < 2:
            raise FieldValidationError(
                f"n_per_axis must be an integer >= 2, got {self.n_per_axis!r}")
        for name, bounds in (("box_length", _BOX_LENGTH_RANGE), ("c", _UNIT_RANGE),
                             ("hbar", _UNIT_RANGE)):
            value = getattr(self, name)
            if not check_real(name, value) > 0:
                raise FieldValidationError(f"{name} must be > 0, got {value!r}")
            low, high = bounds
            if not low <= value <= high:
                raise RangeError(f"{name} = {value!r} is outside the supported range "
                                 f"[{low:g}, {high:g}]")

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

    ``field`` is held in payload order (see the module docstring).  An input
    already in that order is kept without a copy; any other array is copied
    into it once.
    """

    field: np.ndarray
    spec: GridSpec
    representation: str = POSITION
    time: float = 0.0

    def __post_init__(self):
        if not isinstance(self.spec, GridSpec):
            raise FieldValidationError(f"spec must be a GridSpec, got {self.spec!r}")
        check_real("time", self.time)
        if self.representation not in _REPRESENTATIONS:
            raise RepresentationError(
                f"representation must be one of {_REPRESENTATIONS}, got {self.representation!r}")
        field = np.asarray(self.field)
        n = self.spec.n_per_axis
        if field.shape != (n, n, n, 3):
            raise FieldValidationError(
                f"field must have shape {(n, n, n, 3)}, got {field.shape}")
        self.field = plane_view(np.ascontiguousarray(plane_view(field), dtype=np.complex128))

    def copy(self) -> "WeberGrid":
        return WeberGrid(self.field.copy(order="K"), self.spec, self.representation, self.time)


def total_energy(weber: WeberGrid) -> float:
    """Box total energy as a Riemann sum, in either representation.

    Position: sum of rho_E with dx^3 weights.  Momentum: sum of the
    spectral density (1/8pi) |F~|^2 with dk^3 = (2pi/L)^3 weights.  The
    two agree to roundoff by the Parseval identity of the transform
    convention; keeping both routes makes that identity testable.
    """
    # einsum, not a BLAS dot: same speed, and no BLAS threads left spinning
    flat = plane_view(weber.field).view(np.float64)
    return box_energy(np.einsum("zyxc,zyxc->", flat, flat), weber.spec, weber.representation)


def box_energy(sum_sq, spec: GridSpec, representation: str) -> float:
    """Box total energy of a field whose |F|^2 (or |F~|^2) summed over the grid is sum_sq."""
    quad = sum_sq / (8.0 * np.pi)
    if representation == POSITION:
        return float(quad * spec.dx ** 3)
    return float(quad * spec.dk ** 3)
