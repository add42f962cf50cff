"""Photon number, the energy-unweighted wave function, and both flow recipes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonflow import (GridSpec, PhotonWaveFunction, WeberGrid, continuity_residual,
                        density_profile_y, evolve, forward_transform,
                        inverse_transform, normalize_single_photon,
                        photon_number, photon_wavefunction, probability_flow,
                        sample_to_grid, to_position, weber_probability_flow)
from photonflow.errors import DCContentError, RepresentationError, ZeroFieldError
from photonflow.photon import PHI_BASED, WEBER_BASED
from photonflow.planewaves import (CircularPlaneWave, PlaneWaveSuperposition,
                                   copropagating_pair, counterprop_pair, place,
                                   single_wave)
from photonflow.spectral import kgrid, transversality_residual

BOX_N = (2.0 * np.pi) ** 3  # N of the unit-intensity k = 1 wave in the 2 pi box


def _momentum_state(state, spec):
    return forward_transform(sample_to_grid(state, spec))


def test_photon_number_single_wave(spec16):
    n = photon_number(_momentum_state(single_wave(), spec16))
    assert_allclose(n, BOX_N, rtol=1e-12)


def test_photon_number_two_ways(spec16):
    # momentum sum over |F~|^2 / (8 pi hbar k c) vs position-space phi dagger phi
    tilde = _momentum_state(counterprop_pair(), spec16)
    n_energy_weighted = photon_number(tilde)
    phi = to_position(photon_wavefunction(tilde))
    n_phi = float((np.abs(phi.phi) ** 2).sum() * spec16.dx ** 3)
    assert_allclose(n_phi, n_energy_weighted, rtol=1e-12)
    assert_allclose(n_energy_weighted, 1.5 * BOX_N, rtol=1e-12)


def test_photon_number_invariant_under_evolution(spec16):
    tilde = _momentum_state(copropagating_pair(), spec16)
    n0 = photon_number(tilde)
    n1 = photon_number(evolve(tilde, 2.7))
    assert_allclose(n1, n0, rtol=1e-12)


def test_normalize_single_photon(spec16):
    tilde = _momentum_state(single_wave(), spec16)
    unit = normalize_single_photon(tilde)
    assert_allclose(photon_number(unit), 1.0, rtol=1e-12)
    scale = np.abs(unit.field).max() / np.abs(tilde.field).max()
    assert_allclose(scale, 1.0 / np.sqrt(BOX_N), rtol=1e-12)


def test_normalize_rejects_zero_field(spec8):
    zero = WeberGrid(np.zeros((8, 8, 8, 3), dtype=complex), spec8,
                     representation="momentum")
    with pytest.raises(ZeroFieldError):
        normalize_single_photon(zero)


def test_zero_field_photon_number(spec8):
    zero = WeberGrid(np.zeros((8, 8, 8, 3), dtype=complex), spec8,
                     representation="momentum")
    assert photon_number(zero) == 0.0


def test_wavefunction_mode_scaling(spec16):
    # phi~(k) = F~(k) / sqrt(8 pi hbar k c), k = 0 zeroed
    tilde = _momentum_state(copropagating_pair(), spec16)
    pwf = photon_wavefunction(tilde)
    kg = kgrid(spec16)
    occupied = np.linalg.norm(tilde.field, axis=-1) > 1e-8
    expected = np.zeros_like(tilde.field)
    k = kg.shell_k[kg.shell()][occupied][..., None]
    expected[occupied] = tilde.field[occupied] / np.sqrt(8.0 * np.pi * k)
    assert_allclose(pwf.phi, expected, rtol=1e-12, atol=1e-12)
    assert np.all(pwf.phi[0, 0, 0] == 0.0)


def test_wavefunction_round_trip_and_transversality(spec16):
    pwf = photon_wavefunction(_momentum_state(counterprop_pair(), spec16))
    back = forward_transform(WeberGrid(to_position(pwf).phi, spec16))
    assert_allclose(back.field, pwf.phi, rtol=1e-12, atol=1e-12)
    carrier = WeberGrid(pwf.phi, spec16, representation="momentum")
    assert transversality_residual(carrier) < 1e-12


def test_dc_content_rejected(spec8):
    field = np.zeros((8, 8, 8, 3), dtype=complex)
    field[0, 0, 0] = [1.0, 0.0, 0.0]
    field[0, 0, 1] = [1.0, 1.0j, 0.0]
    weber = WeberGrid(field, spec8, representation="momentum")
    with pytest.raises(DCContentError):
        photon_wavefunction(weber)
    with pytest.raises(DCContentError):
        photon_number(weber)


def test_dc_gate_fails_closed_on_nan(spec8):
    field = np.zeros((8, 8, 8, 3), dtype=complex)
    field[0, 0, 1] = [1.0, 1.0j, 0.0]
    field[2, 3, 1, 0] = np.nan
    weber = WeberGrid(field, spec8, representation="momentum")
    with pytest.raises(DCContentError):
        photon_wavefunction(weber)
    with pytest.raises(DCContentError):
        photon_number(weber)


def test_momentum_probability_density_mass_ratio(spec16):
    # k = 1 and k = 2 waves of equal intensity hold probability 2 : 1
    tilde = normalize_single_photon(_momentum_state(copropagating_pair(), spec16))
    density = (np.abs(photon_wavefunction(tilde).phi) ** 2).sum(axis=-1)
    kg = kgrid(spec16)
    k_norm = kg.shell_k[kg.shell()]
    p_slow = density[np.isclose(k_norm, 1.0) & (density > 1e-12)].sum()
    p_fast = density[np.isclose(k_norm, 2.0) & (density > 1e-12)].sum()
    assert_allclose(p_slow / p_fast, 2.0, rtol=1e-12)
    assert_allclose((density.sum()) * spec16.dk ** 3, 1.0, rtol=1e-12)


def test_flow_closed_form_single_wave(spec16):
    flow = probability_flow(
        to_position(photon_wavefunction(_momentum_state(single_wave(), spec16))))
    assert_allclose(flow.rho, np.full_like(flow.rho, 1.0), rtol=1e-10)
    assert_allclose(flow.current[..., 2], np.ones_like(flow.rho), rtol=1e-10)
    assert_allclose(flow.current[..., :2], 0.0, atol=1e-10)
    assert flow.recipe == PHI_BASED


def test_phi_current_is_c_phi_dagger_s_phi(rng, spin_matrices):
    # the paper's form J = c phi^dag s phi with the spin-1 matrices
    s = spin_matrices
    spec = GridSpec(8, 2.0 * np.pi, c=1.7)
    phi = rng.standard_normal((8, 8, 8, 3)) + 1j * rng.standard_normal((8, 8, 8, 3))
    flow = probability_flow(PhotonWaveFunction(phi, spec, "position"))
    expected = spec.c * np.einsum("xyzi,aij,xyzj->xyza", phi.conj(), s, phi)
    assert_allclose(expected.imag, 0.0, atol=1e-13)
    assert_allclose(flow.current, expected.real, rtol=1e-12, atol=1e-13)
    assert_allclose(flow.rho, (np.abs(phi) ** 2).sum(axis=-1), rtol=1e-14)


def test_flow_closed_form_counterprop(spec16):
    flow = probability_flow(
        to_position(photon_wavefunction(_momentum_state(counterprop_pair(), spec16))))
    assert_allclose(flow.rho, np.full_like(flow.rho, 1.5), rtol=1e-10)
    assert_allclose(flow.current[..., 2], np.full_like(flow.rho, 0.5), rtol=1e-10)


def test_weber_flow_counterprop(spec16):
    # energy-weighted recipe: rho = rho_E / E_box, J = S / E_box; standing
    # wave has S = 0 everywhere
    weber = sample_to_grid(counterprop_pair(), spec16)
    flow = weber_probability_flow(weber)
    assert flow.recipe == WEBER_BASED
    assert_allclose(flow.rho.sum() * spec16.dx ** 3, 1.0, rtol=1e-12)
    assert_allclose(flow.current, 0.0, atol=1e-12)


def test_weber_flow_rejects_zero_field(spec8):
    zero = WeberGrid(np.zeros((8, 8, 8, 3), dtype=complex), spec8)
    with pytest.raises(ZeroFieldError):
        weber_probability_flow(zero)


@pytest.mark.parametrize("recipe", [PHI_BASED, WEBER_BASED])
def test_continuity_second_order(spec16, recipe):
    tilde = _momentum_state(copropagating_pair(), spec16)
    coarse = continuity_residual(tilde, recipe, 2e-3)
    fine = continuity_residual(tilde, recipe, 1e-3)
    assert coarse / fine == pytest.approx(4.0, abs=0.3)


def test_probability_where_the_field_vanishes(spec16):
    # equal-amplitude k = 1 and k = 2 waves cancel F at z = pi, yet the
    # 1/sqrt(k) reweighting leaves phi (hence rho) nonzero there
    weber = sample_to_grid(copropagating_pair(), spec16)
    iz = spec16.n_per_axis // 2  # z = pi on the 2 pi grid starting at 0
    assert np.isclose(spec16.axis_coordinates()[iz], np.pi)
    field_mag = np.linalg.norm(weber.field, axis=-1)
    assert field_mag[:, :, iz].max() < 1e-8 * field_mag.max()
    flow = probability_flow(
        to_position(photon_wavefunction(forward_transform(weber))))
    assert flow.rho[:, :, iz].min() > 0.01 * flow.rho.max()


@pytest.mark.parametrize("n, t", [(7, 0.0), (8, 0.55), (15, -1.3)])
def test_density_profile_y_matches_the_full_flow(rng, n, t):
    spec = GridSpec(n, 4.0, 1.5, 0.8)
    limit = n // 2 - 1
    # modes interfere in the x,z-mean only where their signed wave vectors share
    # (kx, kz): pair them up with one handedness per pair
    waves = [CircularPlaneWave(spec.dk * np.array([mx, my, mz]), rng.uniform(0.5, 2.0),
                               handedness, rng.uniform(-np.pi, np.pi))
             for (mx, mz), handedness in zip(rng.integers(-limit, limit + 1, size=(3, 2)),
                                             ("right", "left", "right"))
             for my in rng.choice(np.arange(1, limit + 1), size=2, replace=False)]
    weber = evolve(place(PlaneWaveSuperposition(waves), spec), t)
    reference = probability_flow(to_position(photon_wavefunction(weber))).rho.mean(axis=(0, 2))
    profile = density_profile_y(weber)
    assert profile.shape == (n,)
    assert np.ptp(reference) > 0.01 * reference.max()  # the profile has structure
    assert np.abs(profile - reference).max() <= 1e-13 * reference.max()
    with pytest.raises(RepresentationError):
        density_profile_y(inverse_transform(weber))
    weber.field[0, 0, 0, 0] = 1.0  # the DC gate of photon_wavefunction runs too
    with pytest.raises(DCContentError):
        density_profile_y(weber)
