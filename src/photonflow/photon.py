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

    rho = rho_E / E_box          J = S / E_box .

Both recipes obey |J| <= c rho pointwise and a continuity equation;
continuity_residual verifies the latter numerically for either recipe.

The 1/sqrt(k) weighting is singular at k = 0, so states carrying a
non-negligible share of their energy in the DC mode are rejected, and
the DC photon coefficient is hard-zeroed otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DCContentError, RepresentationError, ZeroFieldError
from .fields import (MOMENTUM, POSITION, GridSpec, WeberGrid, energy_density,
                     poynting_vector, total_energy)
from .planewaves import PHI_BASED, WEBER_BASED, flow_recipe
from .spectral import _fft_inverse, evolve, inverse_transform, kgrid

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
    flat = weber.field.view(np.float64)  # (n, n, n, 6): Re/Im pairs per component
    total = float(np.einsum("xyzc,xyzc->", flat, flat))
    dc = float(np.einsum("c,c->", flat[0, 0, 0], flat[0, 0, 0]))
    # "not <=" so that NaN content fails the gate; a zero field passes
    if not dc <= dc_tolerance * total:
        raise DCContentError(
            f"k = 0 mode carries fraction {dc / total:.3e} of |F~|^2 "
            f"(tolerance {dc_tolerance:.1e}); the 1/sqrt(k) photon weighting "
            "is singular there")


def photon_wavefunction(weber: WeberGrid,
                        dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> PhotonWaveFunction:
    """phi~(k) = F~(k) / sqrt(8 pi hbar k c); the k = 0 coefficient is set to 0."""
    if weber.representation != MOMENTUM:
        raise RepresentationError("photon_wavefunction expects a momentum-representation field")
    _check_dc_content(weber, dc_tolerance)
    spec = weber.spec
    weight = np.sqrt(kgrid(spec).inv_k / (8.0 * np.pi * spec.hbar * spec.c))
    phi = weber.field * weight[..., None]
    return PhotonWaveFunction(phi, spec, MOMENTUM, weber.time)


def to_position(pwf: PhotonWaveFunction) -> PhotonWaveFunction:
    if pwf.representation != MOMENTUM:
        raise RepresentationError("to_position expects a momentum-representation wave function")
    return PhotonWaveFunction(_fft_inverse(pwf.phi, pwf.spec), pwf.spec, POSITION, pwf.time)


def photon_number(weber: WeberGrid,
                  dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> float:
    """N = (1/8pi) sum_{k != 0} |F~|^2 / (hbar k c) dk^3 >= 0.

    Scales quadratically with the field amplitude and is conserved by
    evolve (each |F~(k)| is preserved mode by mode).
    """
    if weber.representation != MOMENTUM:
        raise RepresentationError("photon_number expects a momentum-representation field")
    _check_dc_content(weber, dc_tolerance)
    spec = weber.spec
    flat = weber.field.view(np.float64)  # (n, n, n, 6): Re/Im pairs per component
    weighted = np.einsum("xyzc,xyzc,xyz->", flat, flat, kgrid(spec).inv_k)
    return float(weighted * spec.dk ** 3 / (8.0 * np.pi * spec.hbar * spec.c))


def normalize_single_photon(weber: WeberGrid,
                            dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> WeberGrid:
    """Scale the field so photon_number(result) = 1 (within roundoff)."""
    n = photon_number(weber, dc_tolerance)
    if n == 0.0:
        raise ZeroFieldError("photon number is 0; there is no photon to normalize")
    return WeberGrid(weber.field / np.sqrt(n), weber.spec, MOMENTUM, weber.time)


def probability_flow(pwf: PhotonWaveFunction) -> ProbabilityFlow:
    """phi-based recipe: rho = phi^dag phi, J = c phi^dag s phi = -i c phi* x phi.

    The cross product phi* x phi is purely imaginary componentwise, so J
    comes out real with no imaginary part to discard.
    """
    if pwf.representation != POSITION:
        raise RepresentationError("probability_flow expects a position-representation wave function")
    phi = pwf.phi
    rho = (phi.real ** 2 + phi.imag ** 2).sum(axis=-1)
    current = pwf.spec.c * np.cross(phi.conj(), phi).imag
    return ProbabilityFlow(rho, current, PHI_BASED, pwf.spec, pwf.time)


def weber_probability_flow(weber: WeberGrid) -> ProbabilityFlow:
    """weber-based recipe: rho = rho_E / E_box, J = S / E_box.

    The normalizing constant is the box total energy, the unique choice
    with units of energy that makes rho integrate to one over the box.
    """
    if weber.representation != POSITION:
        raise RepresentationError("weber_probability_flow expects a position-representation field")
    e_box = total_energy(weber)
    if e_box == 0.0:
        raise ZeroFieldError("zero field has no normalizable energy density")
    rho = energy_density(weber) / e_box
    current = poynting_vector(weber) / e_box
    return ProbabilityFlow(rho, current, WEBER_BASED, weber.spec, weber.time)


def _flow_of(weber_momentum: WeberGrid, recipe: str,
             dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> ProbabilityFlow:
    if recipe == PHI_BASED:
        return probability_flow(to_position(photon_wavefunction(weber_momentum, dc_tolerance)))
    return weber_probability_flow(inverse_transform(weber_momentum))


def _spectral_divergence(vec: np.ndarray, spec: GridSpec) -> np.ndarray:
    kg = kgrid(spec)
    vk = np.fft.fftn(vec, axes=(0, 1, 2))
    div_k = 1j * (kg.kx * vk[..., 0] + kg.ky * vk[..., 1] + kg.kz * vk[..., 2])
    return np.fft.ifftn(div_k, axes=(0, 1, 2)).real


def continuity_residual(weber: WeberGrid, recipe: str, dt_probe: float,
                        dc_tolerance: float = DEFAULT_DC_TOLERANCE) -> float:
    """max-norm of (rho(t+dt) - rho(t-dt)) / 2dt + div J(t); O(dt_probe^2).

    The time derivative is a central difference over exact evolution, the
    divergence is spectral.  Both recipes conserve their density: the
    phi-based flow by construction of the wave equation, the weber-based
    flow by local energy conservation.
    """
    flow_recipe(recipe)  # an unknown recipe fails before any evolution
    if weber.representation != MOMENTUM:
        raise RepresentationError("continuity_residual expects a momentum-representation field")
    flow_plus = _flow_of(evolve(weber, dt_probe), recipe, dc_tolerance)
    flow_minus = _flow_of(evolve(weber, -dt_probe), recipe, dc_tolerance)
    flow_now = _flow_of(weber, recipe, dc_tolerance)
    drho_dt = (flow_plus.rho - flow_minus.rho) / (2.0 * dt_probe)
    div_j = _spectral_divergence(flow_now.current, weber.spec)
    return float(np.abs(drho_dt + div_j).max())
