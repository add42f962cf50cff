"""Analytic circular plane waves: polarization geometry, closed-form flows,
and agreement with the sampled grid pipeline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonflow import (GridSpec, analytic_probability_flow,
                        analytic_weber_flow, energy_density,
                        eval_weber, forward_transform,
                        photon_wavefunction, polarization_basis,
                        poynting_vector, probability_flow, sample_to_grid,
                        to_position)
from photonflow.errors import FieldValidationError, OffGridWaveVectorError
from photonflow.planewaves import (PRESETS, CircularPlaneWave, CompiledState,
                                   PlaneWaveSuperposition, coalesce,
                                   copropagating_pair, counterprop_pair,
                                   single_wave)


def _random_directions(rng, count):
    v = rng.standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_polarization_anchor_along_z():
    e1, e2 = polarization_basis(np.array([0.0, 0.0, 1.0]))
    assert_allclose(e1, [1.0, 0.0, 0.0], atol=0)
    assert_allclose(e2, [0.0, 1.0, 0.0], atol=0)


def test_polarization_basis_orthonormal_right_handed(rng):
    for k_hat in _random_directions(rng, 50):
        e1, e2 = polarization_basis(k_hat)
        assert_allclose([e1 @ e1, e2 @ e2], 1.0, rtol=1e-13)
        assert abs(e1 @ e2) < 1e-13
        assert abs(e1 @ k_hat) < 1e-13
        assert abs(e2 @ k_hat) < 1e-13
        assert_allclose(np.cross(e1, e2), k_hat, atol=1e-13)


def test_circular_polarization_is_helicity_eigenvector(rng):
    # k-hat x eps = -i eps regardless of propagation direction
    for k_hat in _random_directions(rng, 50):
        e1, e2 = polarization_basis(k_hat)
        eps = e1 + 1j * e2
        assert_allclose(np.cross(k_hat, eps), -1j * eps, atol=1e-13)


def test_wave_validation():
    with pytest.raises(FieldValidationError):
        CircularPlaneWave(np.zeros(3), 1.0)
    with pytest.raises(FieldValidationError):
        CircularPlaneWave(np.array([0.0, 0.0, 1.0]), -2.0)
    with pytest.raises(FieldValidationError):
        CircularPlaneWave(np.array([0.0, 0.0, 1.0]), 1.0, "sideways")
    with pytest.raises(FieldValidationError):
        CircularPlaneWave(np.array([0.0, 0.0, 1.0]), 1.0, phase=np.nan)


def test_weber_amplitude_closed_form():
    wave = single_wave().components[0]
    assert_allclose(wave.weber_amplitude(),
                    np.sqrt(4.0 * np.pi) * np.array([1.0, 1.0j, 0.0]),
                    atol=1e-15)
    # per-component phi amplitude sqrt(I / (2 hbar k c^2)) = 1/sqrt(2) at unit values
    assert_allclose(np.abs(CompiledState(single_wave()).mode_sum("phi", np.zeros(3), 0.0)),
                    [np.sqrt(0.5), np.sqrt(0.5), 0.0], rtol=1e-14)


def test_counterprop_field_at_origin():
    # (1, i, 0) plus (1, -i, 0) leaves twice the x component
    value = eval_weber(counterprop_pair(k_left=1.0), np.zeros(3), 0.0)
    assert_allclose(value, 2.0 * np.sqrt(4.0 * np.pi) * np.array([1.0, 0, 0]),
                    atol=1e-13)


def test_component_phase_advances_as_sigma_kct(rng):
    state = counterprop_pair()
    x = rng.standard_normal((6, 3))
    for wave, factor in zip(state.components, (np.exp(-1.3j * 1.0), np.exp(+1.3j * 2.0))):
        one = PlaneWaveSuperposition([wave])
        assert_allclose(eval_weber(one, x, 1.3), eval_weber(one, x, 0.0) * factor,
                        rtol=1e-13)


def test_each_component_is_transverse(rng):
    for k_hat in _random_directions(rng, 20):
        wave = CircularPlaneWave(2.3 * k_hat, 0.7, "left", 0.4)
        assert abs(wave.wave_vector @ wave.polarization()) < 1e-12


def test_coalesce_merges_and_cancels():
    k = np.array([0.0, 0.0, 1.0])
    doubled = coalesce(PlaneWaveSuperposition(
        [CircularPlaneWave(k, 1.0), CircularPlaneWave(k, 1.0)]))
    assert len(doubled.components) == 1
    assert_allclose(doubled.components[0].intensity, 4.0, rtol=1e-14)
    cancelled = coalesce(PlaneWaveSuperposition(
        [CircularPlaneWave(k, 1.0), CircularPlaneWave(k, 1.0, phase=np.pi)]))
    assert cancelled.components == []
    mixed = coalesce(PlaneWaveSuperposition(
        [CircularPlaneWave(k, 1.0), CircularPlaneWave(k, 1.0, "left")]))
    assert len(mixed.components) == 2  # opposite handedness never merges


def test_analytic_flow_closed_forms(rng):
    x = rng.uniform(-5, 5, size=(40, 3))
    t = 0.9
    rho, current = analytic_probability_flow(single_wave(), x, t)
    assert_allclose(rho, 1.0, rtol=1e-13)
    assert_allclose(current, np.broadcast_to([0, 0, 1.0], (40, 3)), atol=1e-13)
    rho2, current2 = analytic_probability_flow(counterprop_pair(), x, t)
    assert_allclose(rho2, 1.5, rtol=1e-13)
    assert_allclose(current2[:, 2], 0.5, rtol=1e-13)
    assert_allclose(current2[:, :2], 0.0, atol=1e-13)


def test_analytic_weber_flow_closed_forms(rng):
    x = rng.uniform(-5, 5, size=(40, 3))
    rho_e, s = analytic_weber_flow(counterprop_pair(), x, 0.3)
    assert_allclose(rho_e, 2.0, rtol=1e-13)
    assert_allclose(s, 0.0, atol=1e-12)


def test_grid_sampling_matches_analytic_evaluation(spec16):
    state = copropagating_pair()
    weber = sample_to_grid(state, spec16, t=0.65)
    mesh = spec16.position_mesh()
    assert_allclose(weber.field, eval_weber(state, mesh, 0.65), rtol=1e-12,
                    atol=1e-12)
    assert weber.time == 0.65


def test_grid_flows_match_analytic_flows(spec16):
    state = counterprop_pair()
    mesh = spec16.position_mesh()
    flow = probability_flow(to_position(photon_wavefunction(
        forward_transform(sample_to_grid(state, spec16)))))
    rho, current = analytic_probability_flow(state, mesh, 0.0)
    assert_allclose(flow.rho, rho, rtol=1e-10)
    assert_allclose(flow.current, current, atol=1e-10)
    rho_e, s = analytic_weber_flow(state, mesh, 0.0)
    weber = sample_to_grid(state, spec16)
    assert_allclose(energy_density(weber), rho_e, rtol=1e-10)
    assert_allclose(poynting_vector(weber), s, atol=1e-10)


def test_off_grid_wave_vector_rejected(spec16):
    state = PlaneWaveSuperposition(
        [CircularPlaneWave(np.array([0.0, 0.0, 1.3]), 1.0)])
    with pytest.raises(OffGridWaveVectorError) as info:
        sample_to_grid(state, spec16)
    assert info.value.nearest is not None
    assert_allclose(info.value.nearest, [0.0, 0.0, 1.0], atol=1e-12)


def test_beyond_nyquist_wave_vector_rejected(spec16):
    state = PlaneWaveSuperposition(
        [CircularPlaneWave(np.array([0.0, 0.0, 8.0]), 1.0)])
    with pytest.raises(OffGridWaveVectorError):
        sample_to_grid(state, spec16)


def test_presets_registry():
    assert set(PRESETS) == {"single-wave", "counterprop-pair",
                            "copropagating-pair"}
    for factory in PRESETS.values():
        state = factory()
        assert state.components
