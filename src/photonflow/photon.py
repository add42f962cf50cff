"""Photon wave function, photon number, and the two probability-flow recipes.

The energy-weighted wave function of the field (Good's 1957 construction)
divides each Fourier mode of F by the square root of the energy per
photon at that mode:

    phi~(k) = F~(k) / sqrt(8 pi hbar k c) ,          k != 0

so that phi~^dag phi~ integrates (dk^3 weights) to the photon number

    N = (1/8pi) sum_{k != 0} |F~(k)|^2 / (hbar k c) dk^3 .

In position space (inverse transform of phi~) this yields a candidate
single-photon probability density and current,

    rho_p = phi^dag phi          J_p = c phi^dag s phi = -i c phi* x phi ,

the phi-based recipe.  The rival weber-based recipe reads the classical
energy density and flux as the flow, divided by the box total energy so
that rho integrates to one:

    rho = rho_E / E_box          J = S / E_box ,

with rho_E = (1/8pi) F* . F and S = (c/8pi i) F* x F = (c/4pi) E x B.

Both recipes obey |J| <= c rho pointwise and a continuity equation;
continuity_residual verifies the latter numerically for either recipe.

The 1/sqrt(k) weighting is singular at k = 0, so states carrying a
non-negligible share of their energy in the DC mode are rejected, and
the DC photon coefficient is hard-zeroed otherwise.

density_profile_y reads the x,z-mean of rho_p along y straight off the
momentum-space field: one per-plane visitor (_profile_row) applies the
weight, an inverse FFT along y and the reduction to one z-plane of the
field's plane view (see fields) at a time, so phi~ is never built in full.
It runs in the spectral kernel's pass, which also sums |F~|^2 and reads
|F~(0)|^2 for the DC gate; density_profiles runs the same visitor after
each of a list of time steps in one such pass, reading the field once
and writing no field.  photon_number gathers the per-shell 1/|k| and sums
|F~|^2 for its DC gate in its own plane loop, and normalize_single_photon
writes its scaled field the same way.  All of them run on
fields.over_planes and add their per-plane sums and profiles in plane
order, so the results do not depend on the number of workers.  Only
photon_wavefunction, which has no plane loop, makes a whole-field pass
for the DC gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DCContentError, FieldValidationError, ZeroFieldError
from .fields import (MOMENTUM, POSITION, FieldPlanes, GridSpec, WeberGrid, over_planes,
                     plane_view, require_representation, sum_in_order, total_energy)
from .planewaves import PHI_BASED, WEBER_BASED, _recipe_flow, flow_recipe
from .spectral import (_TRANSVERSALITY_TOL, _TWO_PI_3_2, _c_dt, _fft_inverse, _gate, _sweep,
                       evolve, inverse_transform, kgrid)

DEFAULT_DC_TOLERANCE = 1e-12


@dataclass
class PhotonWaveFunction:
    """Complex 3-vector wave function phi on the grid (either representation)."""

    phi: np.ndarray
    spec: GridSpec
    representation: str
    time: float = 0.0


@dataclass
class ProbabilityFlow:
    """Scalar density rho and 3-vector current J of one recipe on the grid."""

    rho: np.ndarray
    current: np.ndarray
    recipe: str
    spec: GridSpec
    time: float = 0.0


def _check_dc_content(weber: WeberGrid, dc_tolerance: float):
    flat = plane_view(weber.field).view(np.float64)  # (n, n, n, 6): Re/Im pairs
    check_dc_share(float(np.einsum("c,c->", flat[0, 0, 0], flat[0, 0, 0])),
                   float(np.einsum("zyxc,zyxc->", flat, flat)), dc_tolerance)


def check_dc_share(dc: float, total: float, dc_tolerance: float) -> None:
    """Raise DCContentError unless |F~(0)|^2 = dc is at most dc_tolerance times
    the sum of |F~|^2 over all modes, ``total``."""
    # "not <=" so that NaN content fails the gate; a zero field passes
    if not dc <= dc_tolerance * total:
        raise DCContentError(
            f"k = 0 mode carries fraction {dc / total:.3e} of |F~|^2 "
            f"(tolerance {dc_tolerance:.1e}); the 1/sqrt(k) photon weighting "
            "is singular there")


def photon_count(sum_sq_over_k: float, spec: GridSpec) -> float:
    """N of a field whose |F~|^2 / |k| summed over the modes k != 0 is sum_sq_over_k."""
    return float(sum_sq_over_k * spec.dk ** 3 / (8.0 * np.pi * spec.hbar * spec.c))


def _good_weights(spec: GridSpec) -> np.ndarray:
    """1 / sqrt(8 pi hbar k c) per shell of kgrid(spec) (0 at k = 0); index it
    with a shell index (KGrid.shell or shell_plane)."""
    return np.sqrt(kgrid(spec).shell_inv_k / (8.0 * np.pi * spec.hbar * spec.c))


def photon_wavefunction(weber: WeberGrid,
                        dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> PhotonWaveFunction:
    """phi~(k) = F~(k) / sqrt(8 pi hbar k c); the k = 0 coefficient is set to 0."""
    require_representation(weber, MOMENTUM, "photon_wavefunction")
    _check_dc_content(weber, dc_tolerance)
    weight = _good_weights(weber.spec)[kgrid(weber.spec).shell()]
    phi = weber.field * weight[..., None]
    return PhotonWaveFunction(phi, weber.spec, MOMENTUM, weber.time)


def to_position(pwf: PhotonWaveFunction) -> PhotonWaveFunction:
    require_representation(pwf, MOMENTUM, "to_position")
    return PhotonWaveFunction(_fft_inverse(pwf.phi, pwf.spec), pwf.spec, POSITION, pwf.time)


def _profile_row(spec: GridSpec):
    """The kernel's visitor (see spectral._sweep) giving the unscaled profile
    row of a z-plane.

    By Parseval along x and z only an inverse FFT along y is needed: with
    g = ifft_y(phi~) (2pi)^(3/2) / (dx^3 n^2), the x,z-mean of phi^dag phi
    along y is the sum over kx, kz and components of |g|^2.  The row sums
    |ifft_y(phi~)|^2 of the plane; _profile adds the rows and scales them.
    Good's weights are gathered into the lent float buffer and phi~ formed
    in the lent complex one, which then takes the inverse FFT in C order
    (np.fft's out= needs numpy 2), so that its float view holds Re/Im pairs.
    """
    weights = _good_weights(spec)

    def visit(plane, shell, phi, weight):
        np.multiply(plane, np.take(weights, shell, out=weight, mode="clip")[..., None], out=phi)
        np.copyto(phi, np.fft.ifft(phi, axis=1))
        flat = phi.view(np.float64)  # (1, n, n, 6): Re/Im pairs
        return np.einsum("zyxc,zyxc->y", flat, flat)
    return visit


def _profile(sums, rows, spec: GridSpec, dc_tolerance: float) -> np.ndarray:
    """The profile of a field from its FieldSums and its _profile_row rows in
    plane order, after the DC gate of photon_wavefunction on the sums."""
    check_dc_share(sums.dc_sq, sums.sum_sq, dc_tolerance)
    scale = _TWO_PI_3_2 / (spec.dx ** 3 * spec.n_per_axis ** 2)
    # an overflowed row is inf, and inf times an underflowed scale NaN: both
    # reach the caller as a non-finite profile, without a warning
    with np.errstate(invalid="ignore", over="ignore"):
        return sum_in_order(rows) * scale ** 2


def density_profile_y(weber: WeberGrid,
                      dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> np.ndarray:
    """The x,z-mean of the phi-based density rho = phi^dag phi along y, from F~.

    Applies Good's weight, an inverse FFT along y and the reduction one
    z-plane at a time in one pass of the spectral kernel, which also sums
    |F~|^2 and reads |F~(0)|^2 for the DC gate of photon_wavefunction, so
    its temporaries are plane-sized; the per-plane profiles are added in
    plane order.  It equals
    probability_flow(to_position(photon_wavefunction(weber))).rho.mean(axis=(0, 2))
    to roundoff without building phi~, the 3-D inverse transform or the
    current.
    """
    require_representation(weber, MOMENTUM, "density_profile_y")
    (_, sums, rows), = _sweep(FieldPlanes(weber), visit=_profile_row(weber.spec))
    return _profile(sums, rows, weber.spec, dc_tolerance)


def density_profiles(weber: WeberGrid, dts,
                     transversality_tol: float = _TRANSVERSALITY_TOL,
                     dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> list:
    """density_profile_y of ``weber`` advanced by each step of ``dts`` in turn.

    One pass of the spectral kernel reads each z-plane of ``weber`` once,
    turns it through every step in plane buffers and takes each step's
    profile row from the plane it leaves, so ``weber`` is only read and no
    advanced field is written.  Each step keeps the gates of
    advance(weber, dt) and density_profile_y, in that order: the
    transversality gate on the field it starts from and the DC gate on the
    field it leaves; the first step that fails raises.  The profiles keep
    the bits of that route.  A non-finite dt or largest angle raises
    FieldValidationError before the pass (spectral.check_step).
    """
    require_representation(weber, MOMENTUM, "density_profiles")
    spec = weber.spec
    c_dts = [_c_dt(spec, dt) for dt in dts]
    profiles = []
    for residual, sums, rows in _sweep(FieldPlanes(weber), c_dts, visit=_profile_row(spec)):
        _gate(residual, transversality_tol)
        profiles.append(_profile(sums, rows, spec, dc_tolerance))
    return profiles


def photon_number(weber: WeberGrid,
                  dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> float:
    """N = (1/8pi) sum_{k != 0} |F~|^2 / (hbar k c) dk^3 >= 0.

    Scales quadratically with the field amplitude and is conserved by
    evolve (each |F~(k)| is preserved mode by mode).  1/|k| is gathered
    one z-plane at a time from the per-shell table, so no (n, n, n) float
    array is built; the same plane loop sums |F~|^2 for the DC gate.
    """
    require_representation(weber, MOMENTUM, "photon_number")
    kg, n = kgrid(weber.spec), weber.spec.n_per_axis
    flat = plane_view(weber.field).view(np.float64)  # (n, n, n, 6): Re/Im pairs

    def work(run):
        # the plane's shell index and 1/|k|, one buffer each per run
        shell, inv_k = np.empty((1, n, n), dtype=np.intp), np.empty((1, n, n))
        records = []
        for zs in run:
            np.take(kg.shell_inv_k, kg.shell_plane(zs, out=shell), out=inv_k, mode="clip")
            records.append((np.einsum("zyxc,zyxc,zyx->", flat[zs], flat[zs], inv_k),
                            np.einsum("zyxc,zyxc->", flat[zs], flat[zs])))
        return records

    over_k, sq = zip(*over_planes(n, work))
    check_dc_share(float(np.einsum("c,c->", flat[0, 0, 0], flat[0, 0, 0])),
                   float(sum_in_order(sq)), dc_tolerance)
    return photon_count(sum_in_order(over_k), weber.spec)


def single_photon_norm(weber: WeberGrid,
                       dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> float:
    """sqrt(photon_number(weber)), the divisor that makes ``weber`` one photon.

    A field with no photons raises ZeroFieldError.
    """
    n = photon_number(weber, dc_tolerance)
    if n == 0.0:
        raise ZeroFieldError("photon number is 0; there is no photon to normalize")
    return np.sqrt(n)


def normalize_single_photon(weber: WeberGrid,
                            dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> WeberGrid:
    """A new field, ``weber``'s divided by single_photon_norm so that
    photon_number(result) = 1 (within roundoff).

    The division is written a z-plane at a time into the new field;
    ``weber`` is left as it is.
    """
    planes, norm = plane_view(weber.field), single_photon_norm(weber, dc_tolerance)
    scaled = np.empty_like(planes)

    def work(run):
        for zs in run:
            np.divide(planes[zs], norm, out=scaled[zs])

    over_planes(weber.spec.n_per_axis, work)
    return WeberGrid(plane_view(scaled), weber.spec, MOMENTUM, weber.time)


def probability_flow(pwf: PhotonWaveFunction) -> ProbabilityFlow:
    """phi-based recipe: rho = phi^dag phi, J = c phi^dag s phi = -i c phi* x phi."""
    require_representation(pwf, POSITION, "probability_flow")
    rho, current = _recipe_flow(flow_recipe(PHI_BASED), pwf.phi, pwf.spec.c)
    return ProbabilityFlow(rho, current, PHI_BASED, pwf.spec, pwf.time)


def weber_probability_flow(weber: WeberGrid) -> ProbabilityFlow:
    """weber-based recipe: rho = rho_E / E_box, J = S / E_box.

    The normalizing constant is the box total energy, the unique choice
    with units of energy that makes rho integrate to one over the box.  A
    field whose total energy is not finite (a NaN or inf entry) raises
    FieldValidationError, a zero field ZeroFieldError.
    """
    require_representation(weber, POSITION, "weber_probability_flow")
    e_box = total_energy(weber)
    if not np.isfinite(e_box):
        raise FieldValidationError(f"field has total energy {e_box!r}; it must be finite")
    if e_box == 0.0:
        raise ZeroFieldError("zero field has no normalizable energy density")
    rho_e, flux = _recipe_flow(flow_recipe(WEBER_BASED), weber.field, weber.spec.c)
    return ProbabilityFlow(rho_e / e_box, flux / e_box, WEBER_BASED, weber.spec, weber.time)


def _flow_of(weber_momentum: WeberGrid, recipe: str,
             dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> ProbabilityFlow:
    if recipe == PHI_BASED:
        return probability_flow(to_position(photon_wavefunction(weber_momentum, dc_tolerance)))
    return weber_probability_flow(inverse_transform(weber_momentum))


def _spectral_divergence(vec: np.ndarray, spec: GridSpec) -> np.ndarray:
    kx, ky, kz = kgrid(spec).plane_k
    vk = plane_view(np.fft.fftn(vec, axes=(0, 1, 2)))
    div_k = 1j * (kx * vk[..., 0] + ky * vk[..., 1] + kz * vk[..., 2])
    return np.fft.ifftn(div_k.transpose(2, 1, 0), axes=(0, 1, 2)).real


def continuity_residual(weber: WeberGrid, recipe: str, dt_probe: float,
                        dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> float:
    """max-norm of (rho(t+dt) - rho(t-dt)) / 2dt + div J(t); O(dt_probe^2).

    The time derivative is a central difference over exact evolution, the
    divergence is spectral.  Both recipes conserve their density: the
    phi-based flow by construction of the wave equation, the weber-based
    flow by local energy conservation.
    """
    flow_recipe(recipe)  # an unknown recipe fails before any evolution
    require_representation(weber, MOMENTUM, "continuity_residual")
    flow_plus = _flow_of(evolve(weber, dt_probe), recipe, dc_tolerance)
    flow_minus = _flow_of(evolve(weber, -dt_probe), recipe, dc_tolerance)
    flow_now = _flow_of(weber, recipe, dc_tolerance)
    drho_dt = (flow_plus.rho - flow_minus.rho) / (2.0 * dt_probe)
    div_j = _spectral_divergence(flow_now.current, weber.spec)
    return float(np.abs(drho_dt + div_j).max())
