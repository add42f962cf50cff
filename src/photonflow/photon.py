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

density_profiles and photon_sums read a plane source (fields.FieldPlanes,
fieldio.WeberFile or planewaves.StatePlanes, see spectral._sweep), so a
plane-wave state or a state file reaches them with no field built.
density_profiles reads the x,z-mean of rho_p along y straight off the
momentum-space field after each of a list of time steps, in one pass of
the spectral kernel that reads the field once and writes no field: one
per-plane visitor (_profile_row) applies the weight, an inverse FFT along y
and the reduction to one z-plane of the field's plane view (see fields) at
a time, in the plane buffer the step leaves, so phi~ is never built in
full, and the pass also sums |F~|^2 and reads |F~(0)|^2 for the DC gate.
photon_sums gathers the per-shell 1/|k| in its own plane loop as the
kernel gathers its tables, from each z-plane's shell offset, and sums
|F~|^2 and |F~|^2 / |k| per z-plane with the kernel's own arithmetic
(spectral._square_sums), so it gives the bits a kernel step of dt = 0
reports, and reads |F~(0)|^2: the one N pass.  photon_number (a field)
gates the DC share on its sums and turns the first into N with
photon_count, the one place N is formed from a sum, which refuses an N
beyond a float; norm_of_sums adds the refusal of N = 0 and gives sqrt(N),
the divisor that makes the field one photon, which normalize_single_photon
and evolve's normalize route form from the sums of a photon_sums pass.
Both passes run on fields.over_planes and add their per-plane sums and
profiles in plane order, so the results do not depend on the number of
workers.  normalize_single_photon divides the whole field once, and
photon_wavefunction gates the DC share on the sums of a photon_sums pass,
as photon_number does, before it weights the whole field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DCContentError, FieldValidationError, ZeroFieldError
from .fields import (MOMENTUM, POSITION, FieldPlanes, GridSpec, WeberGrid, over_planes,
                     plane_view, require_representation, sum_in_order, total_energy)
from .planewaves import PHI_BASED, WEBER_BASED, StatePlanes, _recipe_flow, flow_recipe
from .spectral import (_TRANSVERSALITY_TOL, _TWO_PI_3_2, _c_dt, _fft_inverse, _gate,
                       _gather, _square_sums, _sweep, evolve, inverse_transform, kgrid)

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
    """N of a field whose |F~|^2 / |k| summed over the modes k != 0 is sum_sq_over_k.

    An N that is not finite (beyond a float) raises FieldValidationError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        n = float(sum_sq_over_k * spec.dk ** 3 / (8.0 * np.pi * spec.hbar * spec.c))
    if not np.isfinite(n):
        raise FieldValidationError(f"photon number {n!r} is not finite")
    return n


def _good_weights(spec: GridSpec) -> np.ndarray:
    """1 / sqrt(8 pi hbar k c) per shell of kgrid(spec) (0 at k = 0); index it
    with KGrid.shell, or gather a z-plane's weights from its shell offset
    (spectral._gather)."""
    return np.sqrt(kgrid(spec).shell_inv_k / (8.0 * np.pi * spec.hbar * spec.c))


def photon_wavefunction(weber: WeberGrid,
                        dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> PhotonWaveFunction:
    """phi~(k) = F~(k) / sqrt(8 pi hbar k c); the k = 0 coefficient is set to 0."""
    require_representation(weber, MOMENTUM, "photon_wavefunction")
    _, sum_sq, dc_sq = photon_sums(FieldPlanes(weber))
    check_dc_share(dc_sq, sum_sq, dc_tolerance)
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
    Good's weights are gathered from the plane's shell offset ``base`` into
    the lent float buffer, and phi~ is formed in the plane buffer the step
    leaves, which then takes the inverse FFT in C order (np.fft's out= needs
    numpy 2), so that its float view holds Re/Im pairs.
    """
    weights, yx_sq = _good_weights(spec), kgrid(spec).yx_sq

    def visit(plane, base, weight):
        plane *= _gather(weights, base, yx_sq, weight)[..., None]
        np.copyto(plane, np.fft.ifft(plane, axis=1))
        flat = plane.view(np.float64)  # (1, n, n, 6): Re/Im pairs
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


def density_profiles(source, dts,
                     transversality_tol: float = _TRANSVERSALITY_TOL,
                     dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> list:
    """The x,z-mean of the phi-based density rho = phi^dag phi along y, from F~,
    of the momentum field the plane source ``source`` reads
    (fields.FieldPlanes, fieldio.WeberFile or planewaves.StatePlanes),
    advanced by each step of ``dts`` in turn.

    One pass of the spectral kernel reads each z-plane of the source once,
    turns it through every step in plane buffers and takes each step's
    profile row from the plane it leaves (Good's weight, an inverse FFT
    along y and the reduction), so the source is only read, no advanced
    field is written and the temporaries are plane-sized; the per-plane
    rows are added in plane order.  A profile equals
    probability_flow(to_position(photon_wavefunction(evolve(weber, dt)))).rho.mean(axis=(0, 2))
    to roundoff for the field ``weber`` the source reads, without building
    phi~, the 3-D inverse transform or the current;
    density_profiles(source, [0.0]) is the profile of that field itself.
    Each step keeps the gates of evolve(weber, dt) and
    photon_wavefunction, in that order: the transversality gate on the field
    it starts from and the DC gate on the field it leaves; the first step
    that fails raises.  A non-finite dt, or a largest angle beyond 2^53 rad,
    raises FieldValidationError before the pass (spectral.check_step).
    """
    require_representation(source, MOMENTUM, "density_profiles")
    spec = source.spec
    c_dts = [_c_dt(spec, dt) for dt in dts]
    profiles = []
    for residual, sums, rows in _sweep(source, c_dts, visit=_profile_row(spec)):
        _gate(residual, transversality_tol)
        profiles.append(_profile(sums, rows, spec, dc_tolerance))
    return profiles


def photon_sums(source) -> tuple:
    """(sum of |F~|^2 / |k| over k != 0, sum of |F~|^2, |F~(0)|^2) of the
    momentum field the plane source ``source`` reads, in one plane loop.

    Each z-plane's |F~|^2 per mode, its sum and its 1/|k|-weighted sum are
    formed as spectral's kernel forms them (spectral._square_sums) and the
    per-plane sums are added in plane order, so the two sums are the bits
    FieldSums reports for a step of dt = 0.  Each worker run reads its
    z-planes into one plane buffer and gathers 1/|k| one z-plane at a time
    from the per-shell table, so no (n, n, n) array is built.  Of a
    planewaves.StatePlanes only the z-planes that hold a mode are read: a
    zero plane adds 0.0 to each sum, which changes no bit of it, and an
    unread plane 0 gives |F~(0)|^2 = 0.0.
    """
    spec = source.spec
    kg, n = kgrid(spec), spec.n_per_axis
    planes = list(source._planes) if isinstance(source, StatePlanes) else range(n)
    dc_sq = [0.0]  # replaced by the run that reads plane 0

    def work(run):
        # the plane, and its 1/|k| and |F~|^2 per mode: one buffer each per run
        buffer, (inv_k, sq) = np.empty((1, n, n, 3), dtype=complex), np.empty((2, 1, n, n))
        records = []
        with source.reader(buffer) as read:
            for iz in (planes[zs.start] for zs in run):
                flat = read(slice(iz, iz + 1)).view(np.float64)
                _gather(kg.shell_inv_k, kg.axis_sq[iz], kg.yx_sq, inv_k)
                records.append(_square_sums(flat, inv_k, sq))
                if iz == 0:
                    dc_sq[0] = float(np.einsum("c,c->", flat[0, 0, 0], flat[0, 0, 0]))
        return records

    # a zero record first, which adds 0.0 to each sum, so a state of no plane has sums
    sq, over_k = zip((0.0, 0.0), *over_planes(len(planes), work))
    return float(sum_in_order(over_k)), float(sum_in_order(sq)), dc_sq[0]


def photon_number(weber: WeberGrid,
                  dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> float:
    """N = (1/8pi) sum_{k != 0} |F~|^2 / (hbar k c) dk^3 >= 0.

    Scales quadratically with the field amplitude and is conserved by
    evolve (each |F~(k)| is preserved mode by mode).  The sums come from
    photon_sums(FieldPlanes(weber)), whose |F~|^2 sum feeds the DC gate; an
    N beyond a float raises FieldValidationError (photon_count).
    """
    require_representation(weber, MOMENTUM, "photon_number")
    sum_sq_over_k, sum_sq, dc_sq = photon_sums(FieldPlanes(weber))
    check_dc_share(dc_sq, sum_sq, dc_tolerance)
    return photon_count(sum_sq_over_k, weber.spec)


def norm_of_sums(sums, spec: GridSpec, dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> float:
    """sqrt(N) of a field on ``spec``'s grid whose photon_sums are ``sums``: the
    divisor that makes that field one photon, after photon_number's DC gate.

    A field with no photons raises ZeroFieldError; a photon number beyond a
    float, which would divide the field to 0, raises FieldValidationError.
    """
    sum_sq_over_k, sum_sq, dc_sq = sums
    check_dc_share(dc_sq, sum_sq, dc_tolerance)
    n = photon_count(sum_sq_over_k, spec)
    if n == 0.0:
        raise ZeroFieldError("photon number is 0; there is no photon to normalize")
    return np.sqrt(n)


def normalize_single_photon(weber: WeberGrid,
                            dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> WeberGrid:
    """A new field, ``weber``'s divided by norm_of_sums of its photon_sums so
    that photon_number(result) = 1 (within roundoff); ``weber`` is left as it is.
    """
    require_representation(weber, MOMENTUM, "normalize_single_photon")
    divisor = norm_of_sums(photon_sums(FieldPlanes(weber)), weber.spec, dc_tolerance)
    return WeberGrid(weber.field / divisor, weber.spec, MOMENTUM, weber.time)


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
