"""Analytic circular plane waves: polarization geometry, closed-form flows,
and agreement with the sampled grid pipeline."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from photonflow import (GridSpec, analytic_probability_flow, eval_weber, evolve,
                        forward_transform, place, photon_wavefunction,
                        polarization_basis, probability_flow, sample_to_grid,
                        to_position, total_energy, weber_probability_flow)
from photonflow.errors import FieldValidationError, OffGridWaveVectorError
from photonflow.planewaves import (PRESETS, CircularPlaneWave, CompiledState,
                                   PlaneWaveSuperposition, WEBER_BASED, _cross,
                                   copropagating_pair, counterprop_pair,
                                   flow_recipe, single_wave)


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


def test_compiled_state_merges_and_cancels():
    k = np.array([0.0, 0.0, 1.0])
    single = CompiledState(PlaneWaveSuperposition([CircularPlaneWave(k, 1.0)]))
    doubled = CompiledState(PlaneWaveSuperposition(
        [CircularPlaneWave(k, 1.0), CircularPlaneWave(k, 1.0)]))
    assert doubled.wave_vectors.shape == (1, 3)
    assert_allclose(doubled.weber, 2.0 * single.weber, rtol=1e-14)
    assert_allclose(doubled.phi, 2.0 * single.phi, rtol=1e-14)
    cancelled = CompiledState(PlaneWaveSuperposition(
        [CircularPlaneWave(k, 1.0), CircularPlaneWave(k, 1.0, phase=np.pi)]))
    assert cancelled.wave_vectors.shape == (0, 3)
    assert cancelled.phi.shape == cancelled.weber.shape == (0, 3)
    mixed = CompiledState(PlaneWaveSuperposition(
        [CircularPlaneWave(k, 1.0), CircularPlaneWave(k, 1.0, "left")]))
    assert mixed.wave_vectors.shape == (2, 3)  # opposite handedness never merges


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
    rho_e, s = CompiledState(counterprop_pair()).flow(flow_recipe(WEBER_BASED), x, 0.3)
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
    rho_e, s = CompiledState(state).flow(flow_recipe(WEBER_BASED), mesh, 0.0)
    weber = sample_to_grid(state, spec16)
    flow = weber_probability_flow(weber)
    e_box = total_energy(weber)
    assert_allclose(flow.rho * e_box, rho_e, rtol=1e-10)
    assert_allclose(flow.current * e_box, s, atol=1e-10)


def test_cross_has_the_bits_of_np_cross(spec16, rng):
    # v* x v at closed-form points (the guidance path) and on a grid field in
    # payload order (the grid flows), field_boost's one real 3-vector against
    # many complex values, and the helicity check's pair of 3-vectors
    v = CompiledState(counterprop_pair()).mode_sum("phi", rng.uniform(-3.0, 3.0, (16, 3)), 0.4)
    grid = sample_to_grid(counterprop_pair(), spec16).field
    real = rng.standard_normal(3)
    for a, b in [(v.conj(), v), (grid.conj(), grid), (real, v), (real, grid),
                 (real, rng.standard_normal(3) + 1j * rng.standard_normal(3))]:
        assert np.array_equal(_cross(a, b), np.cross(a, b))


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


def test_wave_vector_rounding_to_k_zero_rejected(spec16):
    # an index within 1e-9 of 0 on every axis would place the wave at k = 0;
    # float noise on one axis of an on-grid wave vector is still accepted
    for k in ([1e-12, 0.0, 0.0], [0.0, -3e-10, 2e-10]):
        state = PlaneWaveSuperposition([CircularPlaneWave(np.array(k), 1.0)])
        for build in (sample_to_grid, place):
            with pytest.raises(OffGridWaveVectorError, match="rounds to the k = 0 site") as info:
                build(state, spec16)
            assert info.value.nearest is None
    noisy = PlaneWaveSuperposition([CircularPlaneWave(np.array([6e-17, 0.0, 1.0]), 1.0)])
    exact = PlaneWaveSuperposition([CircularPlaneWave(np.array([0.0, 0.0, 1.0]), 1.0)])
    assert np.array_equal(place(noisy, spec16).field.any(axis=-1),
                          place(exact, spec16).field.any(axis=-1))


def _random_on_grid_state(spec, rng, count):
    limit = spec.n_per_axis // 2 - 1
    waves = []
    while len(waves) < count:
        m = rng.integers(-limit, limit + 1, size=3)
        if m.any():
            waves.append(CircularPlaneWave(spec.dk * m, rng.uniform(0.5, 2.0),
                                           rng.choice(["right", "left"]),
                                           rng.uniform(-np.pi, np.pi)))
    return PlaneWaveSuperposition(waves)


def _assert_routes_agree(state, spec, t):
    # place builds the field at t = 0; evolve carries it to t
    placed = evolve(place(state, spec), t)
    sampled = forward_transform(sample_to_grid(state, spec, t))
    assert (placed.representation, placed.time) == (sampled.representation, t)
    peak = np.abs(sampled.field).max()
    assert peak > 0
    assert np.abs(placed.field - sampled.field).max() <= 1e-13 * peak


@pytest.mark.parametrize("n, c, hbar, t", [(7, 1.0, 1.0, 0.0), (8, 1.0, 1.0, 0.37),
                                           (15, 2.5, 0.3, -1.9), (8, 0.7, 3.0, 4.1)])
def test_place_matches_sampling_and_transform(rng, n, c, hbar, t):
    spec = GridSpec(n, 3.0, c, hbar)
    _assert_routes_agree(_random_on_grid_state(spec, rng, 6), spec, t)


def test_place_adds_modes_that_share_a_lattice_site(spec8):
    # a right-handed k and a left-handed -k are two modes with one signed wave
    # vector; a pi-shifted copy of a third wave cancels it to an exact zero
    k = spec8.dk * np.array([1.0, -2.0, 3.0])
    q = spec8.dk * np.array([0.0, 2.0, 0.0])
    state = PlaneWaveSuperposition([
        CircularPlaneWave(k, 1.0, "right", 0.3),
        CircularPlaneWave(-k, 0.6, "left", 1.1),
        CircularPlaneWave(q, 0.8, "right", 0.2),
        CircularPlaneWave(q, 0.8, "right", 0.2 + np.pi),
    ])
    for t in (0.0, 0.8):
        _assert_routes_agree(state, spec8, t)
    field = place(state, spec8).field
    assert np.count_nonzero(np.abs(field).sum(axis=-1)) == 1


def test_off_grid_error_is_the_same_on_both_routes(spec16):
    state = PlaneWaveSuperposition([
        CircularPlaneWave(np.array([0.0, 0.0, 1.0]), 1.0),
        CircularPlaneWave(np.array([0.0, 1.3, 9.0]), 1.0)])
    errors = []
    for route in (sample_to_grid, place):
        with pytest.raises(OffGridWaveVectorError) as info:
            route(state, spec16)
        errors.append(info.value)
    assert str(errors[0]) == str(errors[1])
    assert "component 1" in str(errors[1])
    assert_allclose(errors[1].nearest, [0.0, 1.0, 7.0], atol=1e-12)
    assert (errors[0].nearest == errors[1].nearest).all()


def test_presets_registry():
    assert set(PRESETS) == {"single-wave", "counterprop-pair",
                            "copropagating-pair"}
    for factory in PRESETS.values():
        state = factory()
        assert state.components
