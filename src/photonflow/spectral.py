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

KGrid holds the wave vectors of a grid as three axes broadcast on the plane
view, the integer squares of the indices per axis and two per-shell tables
of |k| and 1/|k| (0 at k = 0), indexed by the shell m^2 = mx^2 + my^2 + mz^2:
a mode enters the propagator and Good's weight only through |k|, which
takes 3 (n/2)^2 + 1 values against n^3 modes.  It holds no (n, n, n)
array and the plane loops form no shell index: the shells of z-plane iz
are mz^2 + (my^2 + mx^2), so a table read from the plane's offset mz^2 on
at the n^2 sums my^2 + mx^2 (_gather) gives its entry per mode of the
plane.  The reference routes (project_transverse, klein_gordon_residual,
photon.photon_wavefunction) build the full index when they run.  A
WeberGrid holds its field in PHWF1 payload order (see fields), so the
kernels here work on its plane view [iz, iy, ix, component], whose
z-planes are contiguous.

The plane loops here and in photon run through fields.over_planes, which
works contiguous runs of z-planes on up to two threads (numpy's array
loops release the GIL), each run with one-plane buffers it allocates once
and overwrites plane by plane; a loop that reduces adds its per-plane
records in plane order (fields.sum_in_order), so every result is the same
bit for bit whatever the worker count.

evolve, advance_into, transversality_residual and photon.density_profiles
share one kernel (_sweep) that reads a field one z-plane at a time through
a plane reader, turns each plane through a list of steps and hands the
plane each step leaves to that step's plane writer, if there are writers:
fields.FieldPlanes for a field in memory, fieldio.WeberFile for the
payload of a PHWF1 file and planewaves.StatePlanes for a plane-wave state
that no field holds (a source only); every reader fills the run's plane
buffer, divided by the divisor of a file or a state if it has one.  Mode
by mode the dynamics never look beyond one plane, so advance_into writes
the snapshot of every step from one read of its source, without a field
in memory and without reading a snapshot back, and density_profiles takes
a profile of every step from one read of a field it never writes: between
the steps a plane stays in the run's buffers, and a per-step visitor reads
each plane a step leaves while it is at hand.  Each step's transversality
gate is the tally of the plane the step before it left.
The kernel forms the rotation's cos, sin/|k| and (1 - cos)/|k|^2 once per
step and shell and gathers them per plane from the plane's shell offset
into run buffers (_gather); per plane and step it forms k . F~ once and
uses it for the NaN-closed transversality gate and for the rotation.  The
buffers share roles: one complex buffer takes every product, a gather slot
takes (1 - cos)/|k|^2, then cos, then |F~|^2, the rotation's buffer, seen
in payload order, is also the plane the reader fills, the plane the
writers write and the plane the visitor works in, with a gather slot that
is free while it runs, so a run holds about three planes of three
components.
evolve(w, dt) is advance_into from w's field into a new field: w is only
read, and the step holds the new field and plane-sized temporaries.  From
the planes it already holds the kernel also sums |F~|^2 and |F~|^2/|k|,
reads |F~(0)|^2 and forms the transversality residual of the field each
step leaves behind (FieldSums), so a caller that needs the energy, the
photon number and the residual of each evolved state reads the field once;
the sums are formed per z-plane by _square_sums, which photon.photon_sums
shares.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FieldValidationError, TransversalityError
from .fields import (MOMENTUM, POSITION, FieldPlanes, GridSpec, WeberGrid, check_real,
                     over_planes, plane_view, require_representation, sum_in_order)

_TWO_PI_3_2 = (2.0 * np.pi) ** 1.5

# Absolute floor used only to avoid 0/0 in residual quotients.
_RESIDUAL_FLOOR = 1e-300

# default transversality residual that evolve and advance_into accept
_TRANSVERSALITY_TOL = 1e-10

# The largest angle |k| c |dt| a step may turn a mode by.  A float angle theta
# carries a rounding error of about u theta, with the unit roundoff u = 2^-53:
# beyond 2^53 rad that error reaches 1 rad, and cos and sin of it keep no digit.
_MAX_ANGLE = 2.0 ** 53


class KGrid:
    """Wave vectors of the discrete Fourier modes of a GridSpec.

    Built from signed integer indices (0, 1, ..., n/2-1, -n/2, ..., -1
    per axis) so |k| values are reproducible from the indices bit-exactly.
    ``plane_k`` holds the wave-vector components kx, ky, kz broadcast on a
    plane view's [iz, iy, ix] axes, shapes (1, 1, n), (1, n, 1) and
    (n, 1, 1).  A mode's shell is the integer m^2 = mx^2 + my^2 + mz^2;
    ``shell_k`` and ``shell_inv_k`` hold |k| and 1/|k| (0 at k = 0) for
    m^2 = 0, 1, ..., 3 (n/2)^2, so ``shell_k[index]`` is |k| per mode for a
    shell index ``index``.  No (n, n, n) array is held: ``axis_sq`` holds
    the squares m^2 of one axis and ``yx_sq`` their sums my^2 + mx^2 over a
    z-plane, so ``table[axis_sq[iz]:][yx_sq]`` is a per-shell table per mode
    of z-plane iz with no shell index formed (_gather), and shell gives the
    index of every mode for the routes that need it whole.  m^2 is
    symmetric in the three axes, so the index indexes the modes of a field
    [ix, iy, iz] and of its plane view [iz, iy, ix] alike.
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        n = spec.n_per_axis
        idx = ((np.arange(n) + n // 2) % n) - n // 2
        axis = spec.dk * idx
        self.plane_k = tuple(axis.reshape(shape)
                             for shape in ((1, 1, n), (1, n, 1), (n, 1, 1)))
        self.axis_sq = (idx ** 2).astype(np.intp)  # np.take's index type
        self.yx_sq = self.axis_sq[:, None] + self.axis_sq[None, :]
        self.shell_k = spec.dk * np.sqrt(np.arange(3 * (n // 2) ** 2 + 1, dtype=float))
        self.shell_inv_k = np.divide(1.0, self.shell_k, out=np.zeros_like(self.shell_k),
                                     where=self.shell_k > 0)

    def shell(self) -> np.ndarray:
        """The (n, n, n) shell index of every mode, in the smallest unsigned
        type that holds 3 (n/2)^2 (uint16 up to n = 295)."""
        sq = self.axis_sq.astype(np.min_scalar_type(len(self.shell_k) - 1))
        return sq[:, None, None] + sq[None, :, None] + sq[None, None, :]


@lru_cache(maxsize=32)
def kgrid(spec: GridSpec) -> KGrid:
    return KGrid(spec)


def _fft_inverse(arr: np.ndarray, spec: GridSpec) -> np.ndarray:
    # scaled in place after the FFT: scaling the input first would hold a third field
    result = np.fft.ifftn(arr, axes=(0, 1, 2))
    result *= _TWO_PI_3_2 / spec.dx ** 3
    return result


def forward_transform(weber: WeberGrid) -> WeberGrid:
    """Position -> momentum representation (symmetric convention above).

    The 1-D FFTs run in the order np.fft.fftn takes them, so the result is
    bit for bit fftn's: along z one y-plane at a time, then along y and x
    one z-plane at a time, each z-plane scaled as it is written back.  Both
    passes run through over_planes on a copy of the field, so beyond the
    result only plane-sized temporaries are allocated.
    """
    require_representation(weber, POSITION, "forward_transform")
    tilde = weber.copy()
    planes, n = plane_view(tilde.field), weber.spec.n_per_axis
    scale = weber.spec.dx ** 3 / _TWO_PI_3_2

    def along_z(run):
        for ys in run:
            planes[:, ys] = np.fft.fft(planes[:, ys], axis=0)

    def along_y_x(run):
        for zs in run:
            plane = np.fft.fft(np.fft.fft(planes[zs], axis=1), axis=2)
            plane *= scale
            planes[zs] = plane

    over_planes(n, along_z)
    over_planes(n, along_y_x)
    tilde.representation = MOMENTUM
    return tilde


def inverse_transform(weber: WeberGrid) -> WeberGrid:
    """Momentum -> position representation, the exact inverse of forward_transform."""
    require_representation(weber, MOMENTUM, "inverse_transform")
    return WeberGrid(_fft_inverse(weber.field, weber.spec), weber.spec,
                     POSITION, weber.time)


@dataclass(frozen=True)
class FieldSums:
    """What one pass of the kernel learns about the field it leaves behind.

    ``sum_sq`` is the sum of |F~|^2 over all modes and ``sum_sq_over_k``
    the sum of |F~|^2 / |k| over k != 0, each summed per z-plane from the
    |F~|^2 per mode that the residual's peak needs (_square_sums) and added
    in plane order; photon.photon_sums, which photon_number,
    normalize_single_photon, photon_wavefunction and the command line's
    evolve read, sums them with the same bits, total_energy over the whole
    field at once, which agrees to roundoff.  ``dc_sq`` is |F~(0)|^2.
    ``residual`` is the transversality residual, bit for bit as
    transversality_residual reports it.
    """

    sum_sq: float
    sum_sq_over_k: float
    dc_sq: float
    residual: float


def _square_sums(flat, inv_k, sq) -> tuple:
    """(sum |F~|^2, sum |F~|^2 / |k|) of a z-plane of float view ``flat`` (Re/Im
    pairs) and 1/|k| ``inv_k``, from its |F~|^2 per mode, which is written into
    the float plane buffer ``sq``: the one arithmetic of the energy and photon
    number sums (FieldSums, photon.photon_sums)."""
    np.einsum("...i,...i->...", flat, flat, out=sq)
    return sq.sum(), np.einsum("zyx,zyx->", sq, inv_k)


def _tally(k, g, flat, inv_k, k_dot_f, product, real):
    """Tally of one z-plane (components ``g`` first, float view ``flat``),
    with its k . F~ written into ``k_dot_f``.

    The tally is (max |k . F~| / |k|, max |F~|^2, sum |F~|^2,
    sum |F~|^2 / |k|).  ``product`` (complex) and ``real`` (float) are plane
    buffers it overwrites; ``real`` is left holding |F~|^2 per mode.
    """
    np.multiply(k[0], g[0], out=k_dot_f)
    k_dot_f += np.multiply(k[1], g[1], out=product)
    k_dot_f += np.multiply(k[2], g[2], out=product)
    longitudinal = np.abs(k_dot_f, out=real)
    longitudinal *= inv_k
    peak_longitudinal = longitudinal.max()
    sum_sq, sum_sq_over_k = _square_sums(flat, inv_k, real)
    return peak_longitudinal, real.max(), sum_sq, sum_sq_over_k


def _fold(tallies):
    """(residual, sum |F~|^2, sum |F~|^2 / |k|) of a field from its per-plane
    tallies, the sums added in plane order."""
    # np.max, not max(): max(0.0, nan) is 0.0, and a NaN must reach the gate
    longitudinal, peak_sq = np.max([tally[:2] for tally in tallies], axis=0)
    sum_sq = sum_in_order(tally[2] for tally in tallies)
    sum_sq_over_k = sum_in_order(tally[3] for tally in tallies)
    peak = np.sqrt(peak_sq)
    # an infinite peak would scale any longitudinal part to 0: report NaN so gates fail
    residual = longitudinal / (peak + _RESIDUAL_FLOOR) if np.isfinite(peak) else np.nan
    return float(residual), float(sum_sq), float(sum_sq_over_k)


def _rotate(k, g, along, cos, sin_k, rotated, product):
    """Turn one z-plane (components ``g`` first) about k-hat into ``rotated``.

    Rodrigues with the unnormalized k and 1/|k| folded into the weights
    ``cos``, ``sin_k`` = sin / |k| and ``along`` = (k . F~) (1 - cos) / |k|^2:
    F~ cos + (k x F~) sin / |k| + k (k . F~) (1 - cos) / |k|^2.  Each product
    is formed in the plane buffer ``product``.
    """
    for i, j, l in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        term = np.multiply(k[j], g[l], out=rotated[i])
        term -= np.multiply(k[l], g[j], out=product)
        term *= sin_k
        term += np.multiply(k[i], along, out=product)
        term += np.multiply(cos, g[i], out=product)


def _gather(table, base, yx_sq, out):
    """A per-shell ``table`` per mode of the z-plane whose shells are base + yx_sq,
    written into the plane buffer ``out`` of shape (1, n, n) and returned."""
    # mode="clip": with the default "raise" np.take buffers its out=
    np.take(table[base:], yx_sq, out=out[0], mode="clip")
    return out


def _turn(kg: KGrid, c_dt: float):
    """Per shell of ``kg``: cos, sin / |k| and (1 - cos) / |k|^2 of the angle |k| c_dt."""
    theta = kg.shell_k * c_dt
    cos = np.cos(theta)
    return cos, np.sin(theta) * kg.shell_inv_k, (1.0 - cos) * kg.shell_inv_k ** 2


def _sweep(source, c_dts=(None,), sinks=None, visit=None):
    """One pass over a momentum field, a z-plane at a time, through a list of steps.

    ``c_dts`` holds one entry per step: c dt, by which each mode is rotated
    about k-hat by the angle |k| c dt, or None for a step that turns
    nothing; each step starts from the field the step before leaves.
    ``source`` reads the field's z-planes and ``sinks``, if given, holds
    one sink per step, which takes each plane that step leaves: each is a
    fields.FieldPlanes or a fieldio.WeberFile, whose reader(buffer) and
    writer() give each worker run read(zs), which fills ``buffer`` and
    returns it, and write(zs, plane); the source may also be a
    planewaves.StatePlanes, and a sink is never the source.  Without sinks
    a turned plane stays in the run's buffers and no field is written.
    ``visit(plane, base, real)``, if given, records what it needs of the
    plane (shape (1, n, n, 3)) each step leaves, whose shells are
    ``base`` + kg.yx_sq (its per-shell tables are read with _gather at
    ``base``), after the step's sink has written it; it may overwrite
    ``plane`` and ``real`` (a float run buffer of shape (1, n, n)).  It
    runs on the worker threads (see fields.over_planes) and calls no
    public photonflow function.

    Returns one (residual, sums, visits) per step: the transversality
    residual of the field the step starts from, the FieldSums of the field
    it leaves and the visit records of its z-planes in plane order (None
    each without ``visit``).  Per z-plane k . F~ is formed once for the
    gate and the rotation and carried from a step's result to the next
    step; the rotation's weights are gathered from per-shell tables.  The
    planes run through over_planes, and _fold folds their tallies per step.
    Every plane-sized temporary of a worker run lives in buffers the run
    allocates once and the plane loop overwrites (out=), the reader's plane
    too: the rotation's buffer, seen in payload order, is the one buffer
    the reader fills and the one that holds the plane each turning step
    leaves, which the step's sink writes as it is.  Only the visitor's
    inverse FFT allocates its result per plane.
    """
    spec = source.spec
    n = spec.n_per_axis
    kg = kgrid(spec)
    kx, ky, kz = kg.plane_k
    yx_sq = kg.yx_sq
    turns = [None if c_dt is None else _turn(kg, c_dt) for c_dt in c_dts]
    dc_sq = [None] * len(turns)  # per step, |F~(0)|^2 of the field left: the run of plane 0

    def work(run):
        # the plane's components, contiguous, and a second such buffer that
        # takes their rotation; seen in payload order, the second holds the
        # plane the reader fills and, after each rotation, the plane the step
        # leaves.  That plane is what the visitor works in: the components
        # are the other buffer's, and a step that does not turn forms the
        # plane from them again after the visitor of the step before.
        first, second = np.empty((2, 3, 1, n, n), dtype=complex)
        k_dot_f, product = np.empty((2, 1, n, n), dtype=complex)
        # 1/|k| of the plane, and two slots for the gathered weights: along,
        # then cos, in the first, which _tally then overwrites; sin / |k| in the
        # second, lent to the visitor afterwards
        inv_k, real, weight = np.empty((3, 1, n, n))
        records = []
        # non-finite entries give NaN products here; the residual reports them
        with ExitStack() as stack, np.errstate(invalid="ignore", over="ignore"):
            read = stack.enter_context(source.reader(second.reshape(1, n, n, 3)))
            writes = [stack.enter_context(sink.writer()) for sink in sinks or ()]
            for zs in run:
                g, spare = first, second
                plane = read(zs)
                np.copyto(g, np.moveaxis(plane, -1, 0))
                k = (kx, ky, kz[zs])
                # the plane's shells are mz^2 + (my^2 + mx^2): its offset into
                # the per-shell tables, which _gather reads at yx_sq
                base = kg.axis_sq[zs.start]
                _gather(kg.shell_inv_k, base, yx_sq, inv_k)
                tally = _tally(k, g, plane.view(np.float64), inv_k, k_dot_f, product, real)
                steps = []
                for i, turn in enumerate(turns):
                    result = tally
                    if turn is not None:
                        cos, sin_k, along = turn
                        # in place: k . F~ is not needed again
                        k_dot_f *= _gather(along, base, yx_sq, real)
                        _rotate(k, g, k_dot_f, _gather(cos, base, yx_sq, real),
                                _gather(sin_k, base, yx_sq, weight), spare, product)
                        g, spare = spare, g
                        plane = spare.reshape(plane.shape)
                        np.copyto(plane, np.moveaxis(g, 0, -1))
                        result = _tally(k, g, plane.view(np.float64), inv_k, k_dot_f,
                                        product, real)
                    elif visit and i:  # the visitor of the step before worked in the plane
                        np.copyto(plane, np.moveaxis(g, 0, -1))
                    if writes:
                        writes[i](zs, plane)
                    if zs.start == 0:
                        dc = plane.view(np.float64)[0, 0, 0]
                        dc_sq[i] = float(np.einsum("c,c->", dc, dc))
                    steps.append((tally, result, visit(plane, base, weight) if visit else None))
                    tally = result
                records.append(steps)
        return records

    planes = over_planes(n, work)
    swept = []
    for i, step in enumerate(zip(*planes)):
        sources, results, visits = zip(*step)
        result_residual, sum_sq, sum_sq_over_k = _fold(results)
        swept.append((_fold(sources)[0],
                      FieldSums(sum_sq, sum_sq_over_k, dc_sq[i], result_residual), visits))
    return swept


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
    return _sweep(FieldPlanes(weber))[0][0]


def project_transverse(weber: WeberGrid) -> WeberGrid:
    """F~ -> F~ - khat (khat . F~) per mode (k = 0 untouched). Idempotent."""
    require_representation(weber, MOMENTUM, "project_transverse")
    planes = plane_view(weber.field)
    kg = kgrid(weber.spec)
    k_norm = kg.shell_k[kg.shell()]  # symmetric in its axes: it indexes the plane view too
    # k / |k| by division, so an axis-aligned mode gets an exact unit vector
    # and a second projection removes nothing
    k_hat = [np.divide(k, k_norm, out=np.zeros_like(k_norm), where=k_norm > 0)
             for k in kg.plane_k]
    along = k_hat[0] * planes[..., 0] + k_hat[1] * planes[..., 1] + k_hat[2] * planes[..., 2]
    projected = planes.copy()
    for i, k in enumerate(k_hat):
        projected[..., i] -= k * along
    return WeberGrid(plane_view(projected), weber.spec, MOMENTUM, weber.time)


def _gate(residual: float, transversality_tol: float) -> None:
    if not residual <= transversality_tol:  # NaN fails too
        raise TransversalityError(
            f"state has transversality residual {residual:.3e} > {transversality_tol:.1e}; "
            "project_transverse it first")


def evolve(weber: WeberGrid, dt: float,
           transversality_tol: float = _TRANSVERSALITY_TOL) -> WeberGrid:
    """The field advanced by dt with the exact per-mode propagator, as a new WeberGrid.

    Each mode is rotated about its own k-hat by the angle k c dt in the
    right-handed sense (Rodrigues form), the exact solution of
    dF~/dt = c k x F~.  The rotation preserves |F~(k)| per mode and the
    transversality residual; evolve(dt1) o evolve(dt2) = evolve(dt1+dt2)
    to roundoff.  dt < 0 runs the dynamics backwards.  The k = 0 mode is
    carried through unchanged.  The transversality gate and the rotation
    share one pass over the z-planes; a state that fails the gate is discarded.
    ``weber`` is only read, so it may be read-only: the step, dt == 0
    included, is advance_into from its field into a new one in payload order.

    Parameters
    ----------
    weber : WeberGrid
        Momentum-representation state; must be transverse within
        ``transversality_tol``.
    dt : float
        Time step (any sign).  A non-finite dt, or one that turns the
        largest mode by an angle beyond 2^53 rad (check_step), raises
        FieldValidationError before anything is written.
    """
    require_representation(weber, MOMENTUM, "evolve")
    evolved = WeberGrid(np.empty_like(weber.field), weber.spec, MOMENTUM, weber.time)
    next(advance_into(FieldPlanes(weber), [dt], [FieldPlanes(evolved)], transversality_tol))
    evolved.time += float(dt)
    return evolved


def check_step(spec: GridSpec, dt: float) -> float:
    """c dt of a step dt on ``spec``'s grid; raises FieldValidationError unless
    dt is finite and the largest angle |k| c |dt| it turns a mode by is at most
    _MAX_ANGLE."""
    dt = float(check_real("dt", dt))
    c_dt = float(spec.c) * dt  # Python floats: an overflow gives inf, not a warning
    # the largest angle is the outermost shell's; "not <=" refuses an inf or NaN too
    angle = float(kgrid(spec).shell_k[-1]) * abs(c_dt)
    if not angle <= _MAX_ANGLE:
        raise FieldValidationError(
            f"dt = {dt!r} turns the largest mode by the angle |k| c dt = {angle!r}, "
            f"beyond 2^53 rad, where a float angle has lost every digit of its phase")
    return c_dt


def _c_dt(spec: GridSpec, dt: float):
    """check_step's c dt, or None for dt == 0: _sweep's entry for the step dt."""
    c_dt = check_step(spec, dt)
    return None if float(dt) == 0 else c_dt


def advance_into(source, dts, sinks, transversality_tol: float = _TRANSVERSALITY_TOL):
    """Write the momentum field ``source`` reads, advanced by each step of
    ``dts`` in turn, into that step's sink, in one pass.

    ``source`` and each of ``sinks`` (one per step) are plane readers and
    writers (fields.FieldPlanes, fieldio.WeberFile): each z-plane is read
    once, turned through every step by evolve's exact per-mode propagator
    and written by each step into its sink, so no field need be held in
    memory and no sink is read back.  A step with dt == 0 writes the field
    it starts from.  A dt that check_step refuses raises
    FieldValidationError before anything is read.  Returns an iterator over
    the steps in order, after the pass: each step taken from it runs the
    step's transversality gate on the field the step starts from and gives
    the FieldSums of the field it wrote (its |F~|^2 and |F~|^2/|k| sums,
    |F~(0)|^2 and transversality residual), so a caller acts on each step
    before the next step's gate runs.  After a
    TransversalityError what the sinks of that step and of every later one
    hold is to be discarded.
    """
    require_representation(source, MOMENTUM, "advance_into")
    swept = _sweep(source, [_c_dt(source.spec, dt) for dt in dts], sinks)

    def gated():
        for residual, sums, _ in swept:
            _gate(residual, transversality_tol)
            yield sums
    return gated()


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
    laplacian = -(kg.shell_k ** 2)[kg.shell()][..., None] * weber.field
    defect = _fft_inverse(second - c ** 2 * laplacian, weber.spec)
    return float(np.abs(defect).max())
